// Package simnet models the cluster interconnect: per-node NICs with
// latency, bandwidth, and serialization of concurrent transfers.
//
// The model is LogGP-flavoured with cut-through delivery:
//
//	txStart = max(now, sender NIC free)
//	txDone  = txStart + size/bandwidth          (sender NIC occupied)
//	rxStart = max(txStart + latency, receiver NIC free)
//	arrival = rxStart + size/bandwidth          (receiver NIC occupied)
//
// NICs are full duplex (independent tx and rx occupancy). Several simulated
// processes share one node's NIC (CoresPerNode), which is what makes the
// intra-parallelization update traffic contend exactly as in the paper's
// testbed (4 MPI ranks per InfiniBand 20G HCA).
//
// Same-node messages bypass the NIC and are charged a memory-copy cost.
package simnet

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Config describes the interconnect.
type Config struct {
	Latency        sim.Time // NIC-to-NIC wire+stack latency
	Bandwidth      float64  // bytes/s per NIC, each direction
	LocalLatency   sim.Time // same-node handoff latency
	LocalBandwidth float64  // same-node copy bandwidth (bytes/s)
	CoresPerNode   int      // simulated processes sharing a NIC
}

// InfiniBand20G approximates the paper's interconnect: InfiniBand 20G
// (4x DDR). The signaling rate is 16 Gbit/s of payload, but hosts of that
// era (PCIe gen1/gen2 x8) sustain ~1.4 GB/s of application payload per
// HCA; end-to-end latency ~4 us; 4 cores share one HCA per node.
var InfiniBand20G = Config{
	Latency:        sim.Micros(4),
	Bandwidth:      1.4e9,
	LocalLatency:   sim.Micros(0.5),
	LocalBandwidth: 6.0e9,
	CoresPerNode:   4,
}

// Ethernet10G approximates a commodity 10 GbE cluster of the same era:
// higher latency and less application payload than the InfiniBand fabric,
// for what-if sweeps over the interconnect.
var Ethernet10G = Config{
	Latency:        sim.Micros(15),
	Bandwidth:      1.1e9,
	LocalLatency:   sim.Micros(0.5),
	LocalBandwidth: 6.0e9,
	CoresPerNode:   4,
}

// DefaultNetName is the name of the paper's interconnect: the model a
// scenario selects when it omits its net.
const DefaultNetName = "ib20g"

// Nets names the interconnect models available as scenario platform axes.
var Nets = map[string]Config{
	DefaultNetName: InfiniBand20G,
	"eth10g":       Ethernet10G,
}

// NetNames returns the interconnect names, sorted.
func NetNames() []string {
	names := make([]string, 0, len(Nets))
	for n := range Nets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Node is one cluster node's NIC state.
type Node struct {
	id     int
	txFree sim.Time
	rxFree sim.Time
	txByte int64 // cumulative bytes transmitted (diagnostics)
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// BytesSent returns the cumulative bytes transmitted by the node NIC.
func (n *Node) BytesSent() int64 { return n.txByte }

// Transfer is a handle on an in-flight message, used to model message loss
// when the sender crashes before the NIC finishes transmitting. Callers on
// the hot path embed a Transfer by value in their own per-message record
// and start it with SendInto, so a send allocates no Transfer of its own.
type Transfer struct {
	ev     sim.EventRef
	txDone sim.Time
	bytes  int64

	// Receiver-side reservation, remembered so Cancel can roll it back:
	// the destination NIC (nil for same-node messages, which bypass it),
	// the rxFree value before this transfer reserved it, the arrival it
	// advanced rxFree to, and the occupancy it charged.
	dst      *Node
	prevRx   sim.Time
	arrival  sim.Time
	rxOcc    sim.Time
	canceled bool
}

// TxDone returns the virtual time at which the sender NIC finishes
// transmitting (the local send-completion time).
func (t *Transfer) TxDone() sim.Time { return t.txDone }

// Bytes returns the message size.
func (t *Transfer) Bytes() int64 { return t.bytes }

// Cancel drops the message: it will never be delivered. Used by the fault
// layer when the sender crashes mid-transmission.
//
// The receiver-side NIC reservation is rolled back: the bytes will never
// cross that NIC, so leaving them booked would permanently delay every
// later message into the node (the dead sender would keep throttling
// survivors). The sender-side occupancy stays — the NIC really did
// transmit until the crash, and the sender is dead anyway. If later
// transfers already queued behind this one on the receiver, their arrival
// events are fixed; the reservation shrinks by this transfer's occupancy
// so only future traffic benefits.
func (t *Transfer) Cancel() {
	t.ev.Cancel()
	if t.canceled || t.dst == nil {
		return
	}
	t.canceled = true
	if t.dst.rxFree == t.arrival {
		// No later transfer queued behind this one: restore exactly.
		t.dst.rxFree = t.prevRx
	} else {
		// Later reservations stacked on top; release this transfer's
		// share. arrival >= prevRx + rxOcc and rxFree >= arrival, so
		// this never rewinds past the pre-reservation state.
		t.dst.rxFree -= t.rxOcc
	}
}

// Network is the simulated interconnect.
type Network struct {
	e     *sim.Engine
	cfg   Config
	nodes []*Node
}

// New creates a network of n nodes with the given configuration.
func New(e *sim.Engine, cfg Config, n int) *Network {
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 1
	}
	if cfg.Bandwidth <= 0 || cfg.LocalBandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	net := &Network{e: e, cfg: cfg, nodes: make([]*Node, n)}
	for i := range net.nodes {
		net.nodes[i] = &Node{id: i}
	}
	return net
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Node returns node i.
func (n *Network) Node(i int) *Node { return n.nodes[i] }

// NodeOf maps a process index (core) to its node under block placement.
func (n *Network) NodeOf(proc int) int { return proc / n.cfg.CoresPerNode }

// Send schedules delivery of a message of the given size from node `from`
// to node `to`. deliver runs in engine context at the arrival time. The
// returned Transfer reports the sender-side completion time and allows the
// message to be dropped if the sender crashes before TxDone.
func (n *Network) Send(from, to int, bytes int64, deliver func()) *Transfer {
	tr := &Transfer{}
	arrival := n.reserve(tr, from, to, bytes)
	tr.ev = n.e.At(arrival, deliver)
	return tr
}

// SendInto is the allocation-light Send: it fills the caller-owned tr
// (typically embedded in the caller's per-message record) and schedules tm
// as the delivery callback, so a send costs neither a Transfer allocation
// nor a closure. tr is fully reinitialized; reusing one Transfer for
// consecutive sends is fine once the previous transfer has been delivered
// or canceled.
func (n *Network) SendInto(tr *Transfer, from, to int, bytes int64, tm sim.Timer) {
	arrival := n.reserve(tr, from, to, bytes)
	tr.ev = n.e.AtTimer(arrival, tm)
}

// reserve books the NIC occupancy on both ends and fills every Transfer
// field except the delivery event; it returns the arrival time.
func (n *Network) reserve(tr *Transfer, from, to int, bytes int64) sim.Time {
	if from < 0 || from >= len(n.nodes) || to < 0 || to >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: bad endpoint %d->%d (%d nodes)", from, to, len(n.nodes)))
	}
	if bytes < 0 {
		panic("simnet: negative message size")
	}
	now := n.e.Now()
	if from == to {
		occ := sim.Seconds(float64(bytes) / n.cfg.LocalBandwidth)
		txDone := now + occ
		*tr = Transfer{txDone: txDone, bytes: bytes}
		return txDone + n.cfg.LocalLatency
	}
	src, dst := n.nodes[from], n.nodes[to]
	occ := sim.Seconds(float64(bytes) / n.cfg.Bandwidth)
	txStart := now
	if src.txFree > txStart {
		txStart = src.txFree
	}
	txDone := txStart + occ
	src.txFree = txDone
	src.txByte += bytes
	rxStart := txStart + n.cfg.Latency
	prevRx := dst.rxFree
	if dst.rxFree > rxStart {
		rxStart = dst.rxFree
	}
	arrival := rxStart + occ
	dst.rxFree = arrival
	*tr = Transfer{
		txDone: txDone, bytes: bytes,
		dst: dst, prevRx: prevRx, arrival: arrival, rxOcc: occ,
	}
	return arrival
}
