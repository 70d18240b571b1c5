package cfg

import "maps"

// Solve is the suite's one fixpoint engine. update(n) recomputes n's result
// from the current results of deps(n) and reports whether it changed; every
// node that lists n among its deps is then queued again. Nodes absent from
// nodes may appear in deps and are ignored.
//
// Visit order is deterministic: the worklist runs in sweeps over nodes in
// their given order, visiting only queued nodes. A node queued ahead of the
// one being visited is visited later in the same sweep; one queued at or
// behind it waits for the next sweep. The visits are therefore exactly
// those of round-robin iteration over nodes, minus the ones whose inputs
// have not changed since their last visit, so results that record the first
// witness found (callee chains, taint origins) match round-robin's.
//
// Solve has no round cap. It terminates when every update is monotone over
// a lattice of finite height: each node can then change only as often as
// the lattice is tall. A client whose update cannot be shown monotone must
// bound its own changes and report exceeding the bound as an error.
func Solve[N comparable](nodes []N, deps func(N) []N, update func(N) bool) {
	index := make(map[N]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	dependents := make([][]int, len(nodes))
	queued := make([]bool, len(nodes))
	for i, n := range nodes {
		queued[i] = true
		for _, d := range deps(n) {
			if j, ok := index[d]; ok {
				dependents[j] = append(dependents[j], i)
			}
		}
	}
	for pending := len(nodes); pending > 0; {
		for i, n := range nodes {
			if !queued[i] {
				continue
			}
			queued[i] = false
			pending--
			if !update(n) {
				continue
			}
			for _, j := range dependents[i] {
				if !queued[j] {
					queued[j] = true
					pending++
				}
			}
		}
	}
}

// Lattice is the state domain of a dataflow problem. Join must not modify
// its arguments and must have Identity as its identity element: Identity is
// what a neighbour contributes before it has been visited. For a must
// analysis that is the optimistic "everything holds" state, for a may
// analysis the empty one.
type Lattice[S any] struct {
	Identity S
	Join     func(a, b S) S
	Equal    func(a, b S) bool
}

// Result holds a converged dataflow solution for the blocks reachable from
// entry. In[b] is the join over b's neighbours (predecessors for Forward,
// successors for Backward), so it is the state at the start of b going
// forward and at its end going backward; Out[b] is In[b] carried through
// b's transfer.
type Result[S any] struct {
	In, Out map[*Block]S
}

// Forward solves a forward problem over g in reverse postorder. entry is
// the state on entry to the function. transfer must not modify its input.
func Forward[S any](g *Graph, l Lattice[S], entry S, transfer func(*Block, S) S) Result[S] {
	post := g.Postorder()
	rpo := make([]*Block, len(post))
	for i, b := range post {
		rpo[len(post)-1-i] = b
	}
	return solveBlocks(rpo, g.Entry, l, entry, transfer, func(b *Block) []*Block { return b.Preds })
}

// Backward solves a backward problem over g in postorder. exit is the state
// at function exit. transfer must not modify its input.
func Backward[S any](g *Graph, l Lattice[S], exit S, transfer func(*Block, S) S) Result[S] {
	return solveBlocks(g.Postorder(), g.Exit, l, exit, transfer, func(b *Block) []*Block { return b.Succs })
}

// solveBlocks runs Solve over reachable blocks. Unreachable and not yet
// visited neighbours have no Out entry and contribute the join's identity;
// skipping unreachable ones keeps structurally dead blocks (the exit of a
// condition-less for loop, code after a return) from leaking a bogus
// "nothing has happened yet" state into join points.
func solveBlocks[S any](order []*Block, boundary *Block, l Lattice[S], boundaryState S, transfer func(*Block, S) S, neighbours func(*Block) []*Block) Result[S] {
	r := Result[S]{In: make(map[*Block]S, len(order)), Out: make(map[*Block]S, len(order))}
	Solve(order, neighbours, func(b *Block) bool {
		in := l.Identity
		if b == boundary {
			in = boundaryState
		}
		for _, nb := range neighbours(b) {
			if o, ok := r.Out[nb]; ok {
				in = l.Join(in, o)
			}
		}
		out := transfer(b, in)
		if old, ok := r.In[b]; ok && l.Equal(old, in) && l.Equal(r.Out[b], out) {
			return false
		}
		r.In[b], r.Out[b] = in, out
		return true
	})
	return r
}

// Union is the may-analysis lattice over sets of K: join is set union and
// the identity the empty set (nil).
func Union[K comparable]() Lattice[map[K]bool] {
	return Lattice[map[K]bool]{
		Join: func(a, b map[K]bool) map[K]bool {
			if len(a) == 0 {
				return b
			}
			if len(b) == 0 {
				return a
			}
			out := maps.Clone(a)
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: maps.Equal[map[K]bool, map[K]bool],
	}
}
