package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.00us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.0000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("(250ms).Seconds() = %v", got)
	}
	if Micros(4) != 4*Microsecond {
		t.Fatalf("Micros(4) = %v", Micros(4))
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // same time: FIFO by seq
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEventCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.At(5, func() { ev.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := New()
	var at Time = -1
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past: clamp to now
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Fatalf("clamped event ran at %v, want 100", at)
	}
}

func TestProcessSleep(t *testing.T) {
	e := New()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		p.Sleep(2 * Millisecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 7*Millisecond {
		t.Fatalf("woke at %v, want 7ms", wake)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var trace []string
		for _, n := range []string{"a", "b"} {
			n := n
			e.Spawn(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, n)
					p.Sleep(Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic trace: %v vs %v", first, again)
			}
		}
	}
}

func TestFutureWakesWaiter(t *testing.T) {
	e := New()
	f := e.NewFuture()
	var got any
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		v, err := f.Wait(p, Reason("test wait"))
		if err != nil {
			t.Errorf("unexpected err: %v", err)
		}
		got = v
		at = p.Now()
	})
	e.At(42, func() { f.Complete("hello", nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" || at != 42 {
		t.Fatalf("got %v at %v, want hello at 42", got, at)
	}
}

func TestFutureCompletedBeforeWait(t *testing.T) {
	e := New()
	f := e.NewFuture()
	f.Complete(7, nil)
	var got any
	e.Spawn("waiter", func(p *Proc) { got, _ = f.Wait(p, Reason("w")) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := New()
	f := e.NewFuture()
	f.Complete(nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double complete")
		}
	}()
	f.Complete(nil, nil)
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	f := e.NewFuture()
	e.Spawn("stuck", func(p *Proc) { f.Wait(p, Reason("waiting forever")) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck: waiting forever" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestKillParkedProcess(t *testing.T) {
	e := New()
	reached := false
	p := e.Spawn("victim", func(p *Proc) {
		p.Sleep(10 * Second)
		reached = true
	})
	e.At(Second, func() { e.Kill(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed process continued executing")
	}
	if !p.Crashed() || p.Alive() {
		t.Fatalf("state: crashed=%v alive=%v", p.Crashed(), p.Alive())
	}
}

func TestCrashSelf(t *testing.T) {
	e := New()
	after := false
	p := e.Spawn("suicidal", func(p *Proc) {
		p.Sleep(Millisecond)
		p.Crash()
		after = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after || !p.Crashed() {
		t.Fatal("Crash did not stop the process")
	}
}

func TestKillHooksFire(t *testing.T) {
	e := New()
	var hooked []string
	e.OnKill(func(p *Proc) { hooked = append(hooked, p.Name()) })
	p := e.Spawn("victim", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("survivor", func(p *Proc) { p.Sleep(2 * Millisecond) })
	e.At(Millisecond, func() { e.Kill(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0] != "victim" {
		t.Fatalf("hooked = %v", hooked)
	}
}

func TestKillIsIdempotent(t *testing.T) {
	e := New()
	hooks := 0
	e.OnKill(func(*Proc) { hooks++ })
	p := e.Spawn("victim", func(p *Proc) { p.Sleep(Second) })
	e.At(Millisecond, func() {
		e.Kill(p)
		e.Kill(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hooks != 1 {
		t.Fatalf("hooks = %d, want 1", hooks)
	}
}

func TestKilledWaiterDoesNotWake(t *testing.T) {
	e := New()
	f := e.NewFuture()
	resumed := false
	p := e.Spawn("waiter", func(p *Proc) {
		f.Wait(p, Reason("w"))
		resumed = true
	})
	e.At(10, func() { e.Kill(p) })
	e.At(20, func() { f.Complete(nil, nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("killed process resumed from future")
	}
}

func TestProcessPanicIsReported(t *testing.T) {
	e := New()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestUserData(t *testing.T) {
	e := New()
	p := e.Spawn("p", func(p *Proc) {})
	p.SetUserData(99)
	if p.UserData() != 99 {
		t.Fatal("user data not stored")
	}
	if p.ID() != 0 || p.Name() != "p" || p.Engine() != e {
		t.Fatal("accessors wrong")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := New()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		e.Spawn("child", func(c *Proc) { childAt = c.Now() })
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 5 {
		t.Fatalf("child started at %v, want 5", childAt)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := New()
		var fired []Time
		for _, d := range delays {
			e.At(Time(d), func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: N sleeping processes all finish, and the final clock equals the
// maximum total sleep.
func TestSleepSumProperty(t *testing.T) {
	prop := func(sleeps [][3]uint8) bool {
		if len(sleeps) > 32 {
			sleeps = sleeps[:32]
		}
		e := New()
		var max Time
		done := 0
		for i, trio := range sleeps {
			var total Time
			for _, s := range trio {
				total += Time(s)
			}
			if total > max {
				max = total
			}
			trio := trio
			e.Spawn("p", func(p *Proc) {
				for _, s := range trio {
					p.Sleep(Time(s))
				}
				done++
			})
			_ = i
		}
		if err := e.Run(); err != nil {
			return false
		}
		return done == len(sleeps) && e.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
