package main

import (
	"math"
	"sort"
)

// agg folds finished span trees into per-layer totals and the samples the
// per-layer metrics are percentiles of.
type agg struct {
	self     map[string]int64 // self time per layer, ns
	rootTime int64            // time covered by root spans, ns

	coreOp         []int64 // core.op durations
	pushRTT        []int64 // client push round trips
	serverPushSelf []int64 // server push self times
	serverPoll     []int64 // server poll durations

	requests, linked int64 // client RPCs, and those with a linked server span
	payload          int64 // payload bytes pushed
	transport        int64 // self time of the linked client RPCs, ns
	polls, forwarded int64 // server polls and the batches they returned

	vfsCalls, vfsRead, vfsWrite int64
}

func newAgg() *agg { return &agg{self: make(map[string]int64)} }

func (a *agg) addRoot(r *span) {
	a.rootTime += r.dur()
	a.walk(r)
}

func (a *agg) walk(s *span) {
	self := s.self()
	a.self[s.layer] += self
	switch s.layer {
	case layerCoreOp:
		a.coreOp = append(a.coreOp, s.dur())
	case layerVFS:
		a.vfsCalls++
		switch s.op {
		case "read":
			a.vfsRead += s.n
		case "write":
			a.vfsWrite += s.n
		}
	case layerWire:
		a.requests++
		if len(s.children) > 0 {
			a.linked++
			a.transport += self
		}
		if s.op == "push" {
			a.pushRTT = append(a.pushRTT, s.dur())
			a.payload += s.n
		}
	case layerServer:
		switch s.op {
		case "push":
			a.serverPushSelf = append(a.serverPushSelf, self)
		case "poll":
			a.serverPoll = append(a.serverPoll, s.dur())
			a.polls++
			a.forwarded += s.n
		}
	}
	for i := range s.children {
		a.walk(&s.children[i])
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// quantileNs is quantile over nanosecond samples, scaled by unit.
func quantileNs(ns []int64, q, unit float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / unit
	}
	return quantile(xs, q)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
