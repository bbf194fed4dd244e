package apputil_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/apps/amg"
	"repro/internal/apps/gtc"
	"repro/internal/apps/hpccg"
	"repro/internal/apps/minighost"
)

// TestAlwaysOnSwitchesDecodeOnlyTrue decodes each of the six always-on
// intra switches from a config that spells it: true is accepted, as are
// configs that omit it, while false (and anything else) is an error
// instead of a section silently left on.
func TestAlwaysOnSwitchesDecodeOnlyTrue(t *testing.T) {
	cases := []struct {
		field string
		cfg   func() any
	}{
		{"IntraDdot", func() any { return new(hpccg.Config) }},
		{"IntraSparsemv", func() any { return new(hpccg.Config) }},
		{"IntraCharge", func() any { return new(gtc.Config) }},
		{"IntraPush", func() any { return new(gtc.Config) }},
		{"IntraSweeps", func() any { return new(amg.Config) }},
		{"IntraGsum", func() any { return new(minighost.Config) }},
	}
	for _, tc := range cases {
		for _, v := range []string{"true", "false", "null", "1", `"true"`} {
			err := json.Unmarshal([]byte(`{"Tasks": 8, "`+tc.field+`": `+v+`}`), tc.cfg())
			if (err == nil) != (v == "true") {
				t.Errorf("%s: %s decodes with error %v", tc.field, v, err)
			}
			if err != nil && !strings.Contains(err.Error(), "always on") {
				t.Errorf("%s: %s: error %q does not say the section is always on", tc.field, v, err)
			}
		}
		if err := json.Unmarshal([]byte(`{"Tasks": 8}`), tc.cfg()); err != nil {
			t.Errorf("%s: omitting it: %v", tc.field, err)
		}
	}
}

// TestDefaultConfigEncodingsUnchanged pins the JSON encodings of the
// default and paper configs of the apps with always-on switches to what
// they were while the switches were bools set to true. These encodings
// are what AppFingerprint hashes into store keys and campaign seeds.
// (HPCCG's paper encoding is pinned, through a scenario fingerprint, by
// TestFingerprintPinned.)
func TestDefaultConfigEncodingsUnchanged(t *testing.T) {
	cases := []struct {
		name string
		cfg  any
		want string
	}{
		{"hpccg", hpccg.DefaultConfig(), `{"Nx":16,"Ny":16,"Nz":16,"Iters":10,"Tasks":8,"Scale":1,"PlaneScale":0,` +
			`"IntraDdot":true,"IntraSparsemv":true,"IntraWaxpby":false}`},
		{"gtc", gtc.DefaultConfig(), `{"Cells":64,"PerCell":16,"Zones":8,"Steps":4,"Dt":0.05,"Scale":1,` +
			`"ShiftFrac":0.05,"AuxBytes":40,"IntraCharge":true,"IntraPush":true}`},
		{"gtc paper", gtc.PaperConfig(), `{"Cells":64,"PerCell":25,"Zones":8,"Steps":6,"Dt":0.02,"Scale":64,` +
			`"ShiftFrac":0.05,"AuxBytes":180,"IntraCharge":true,"IntraPush":true}`},
		{"amg", amg.DefaultConfig(), `{"Nx":8,"Ny":8,"Nz":8,"Levels":2,"Solver":"pcg","Points":27,"Iters":8,` +
			`"Restart":5,"CoarseIters":4,"Tasks":8,"SetupFactor":2,"Scale":1,"PlaneScale":1,"IntraSweeps":true}`},
		{"amg pcg paper", amg.PaperPCGConfig(), `{"Nx":12,"Ny":12,"Nz":12,"Levels":2,"Solver":"pcg","Points":27,` +
			`"Iters":6,"Restart":0,"CoarseIters":4,"Tasks":8,"SetupFactor":12,"Scale":512,"PlaneScale":64,` +
			`"IntraSweeps":true}`},
		{"amg gmres paper", amg.PaperGMRESConfig(), `{"Nx":12,"Ny":12,"Nz":12,"Levels":2,"Solver":"gmres",` +
			`"Points":7,"Iters":8,"Restart":10,"CoarseIters":4,"Tasks":8,"SetupFactor":22,"Scale":512,` +
			`"PlaneScale":64,"IntraSweeps":true}`},
		{"minighost", minighost.DefaultConfig(), `{"Nx":8,"Ny":8,"Nz":8,"Steps":4,"Vars":4,"ReduceVars":4,` +
			`"Tasks":8,"Scale":1,"PlaneScale":1,"IntraGsum":true}`},
		{"minighost paper", minighost.PaperConfig(), `{"Nx":16,"Ny":16,"Nz":8,"Steps":6,"Vars":4,` +
			`"ReduceVars":4,"Tasks":8,"Scale":512,"PlaneScale":64,"IntraGsum":true}`},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(b) != tc.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", tc.name, b, tc.want)
		}
	}
}
