package topo

import (
	"fmt"

	"mtp/internal/simnet"
)

// Inventory and path-verification helpers the tests read the fabric with.

// Hosts returns all hosts in construction order.
func (f *Fabric) Hosts() []*simnet.Host { return f.hosts }

// SwitchPod returns the pod a switch belongs to, or -1 for spine/core.
func (f *Fabric) SwitchPod(sw *simnet.Switch) int {
	if pod, ok := f.switchPod[sw]; ok {
		return pod
	}
	return -1
}

// TierTrunks returns the trunks whose transmitting side is the given tier
// (TierLeaf selects uplinks into the fabric, TierSpine the downlinks out of
// it).
func (f *Fabric) TierTrunks(from Tier) []*Trunk {
	var out []*Trunk
	for _, tr := range f.trunks {
		if tr.FromTier == from {
			out = append(out, tr)
		}
	}
	return out
}

// PodTrunks returns the trunks touching the given pod (one rack or one
// fat-tree pod).
func (f *Fabric) PodTrunks(pod int) []*Trunk {
	var out []*Trunk
	for _, tr := range f.trunks {
		if tr.Pod == pod {
			out = append(out, tr)
		}
	}
	return out
}

// CountPaths returns the number of distinct forwarding paths from host src
// to host dst, following every route candidate at every hop. It panics on a
// forwarding loop (see CheckLoopFree for the error-returning sweep).
func (f *Fabric) CountPaths(src, dst int) int {
	if src == dst {
		return 0
	}
	first := f.hosts[src].Uplink()
	n, err := f.countFrom(first.Dst(), f.hosts[dst].ID(), map[simnet.NodeID]bool{})
	if err != nil {
		panic(err.Error())
	}
	return n
}

func (f *Fabric) countFrom(node simnet.Node, dst simnet.NodeID, onStack map[simnet.NodeID]bool) (int, error) {
	if node.ID() == dst {
		return 1, nil
	}
	sw, ok := node.(*simnet.Switch)
	if !ok {
		return 0, fmt.Errorf("topo: path reached host %d instead of %d", node.ID(), dst)
	}
	if onStack[sw.ID()] {
		return 0, fmt.Errorf("topo: forwarding loop through switch %d toward host %d", sw.ID(), dst)
	}
	onStack[sw.ID()] = true
	defer delete(onStack, sw.ID())
	total := 0
	for _, l := range sw.Routes(dst) {
		n, err := f.countFrom(l.Dst(), dst, onStack)
		if err != nil {
			return 0, err
		}
		total += n
	}
	if total == 0 {
		return 0, fmt.Errorf("topo: switch %d has no route toward host %d", sw.ID(), dst)
	}
	return total, nil
}

// CheckLoopFree walks every host pair's full candidate route tree and
// returns the first forwarding loop or routing dead end found, or nil.
func (f *Fabric) CheckLoopFree() error {
	for s := range f.hosts {
		for d := range f.hosts {
			if s == d {
				continue
			}
			first := f.hosts[s].Uplink()
			if _, err := f.countFrom(first.Dst(), f.hosts[d].ID(), map[simnet.NodeID]bool{}); err != nil {
				return err
			}
		}
	}
	return nil
}
