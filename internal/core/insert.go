package core

import (
	"fmt"
	"sort"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// orphan is an entry displaced during CondenseTree, remembered with
// the tree level it must be reinserted at (paper §4.3, step CT1).
type orphan struct {
	e     entry
	level int
}

// Insert adds (or re-adds after an update) the trajectory record of
// the object with the given id.  now is the current time; it must not
// run backwards.  The record is quantized to the float32 precision of
// the page format.
func (t *Tree) Insert(oid uint32, p geom.MovingPoint, now float64) error {
	t.advance(now)
	p = t.prepare(p)
	t.reinsertedAt = 0
	t.leafEntries++
	t.tickUI()
	if err := t.placeEntry(orphan{e: entry{id: oid, rect: geom.PointTPRect(p)}, level: 0}); err != nil {
		return err
	}
	t.publishOp()
	return t.finishOp()
}

// placeEntry inserts an entry at its level and drains the resulting
// orphans — the shared tail of the insertion and deletion algorithms
// (CondenseTree, §4.3).
func (t *Tree) placeEntry(o orphan) error {
	var orphans []orphan
	if err := t.insertOrphan(o, &orphans); err != nil {
		return err
	}
	if err := t.drainOrphans(&orphans); err != nil {
		return err
	}
	return t.shrinkRoot()
}

// drainOrphans reinserts displaced entries, highest level first
// (CT3).  Reinserting may displace further entries; the loop runs
// until the list is empty.
func (t *Tree) drainOrphans(orphans *[]orphan) error {
	for len(*orphans) > 0 {
		// Pop the orphan with the highest level; among equals, FIFO
		// (forced reinsertion appends closest-first, so this performs
		// the R*-tree's "close reinsert").
		best := 0
		for i, o := range *orphans {
			if o.level > (*orphans)[best].level {
				best = i
			}
		}
		o := (*orphans)[best]
		*orphans = append((*orphans)[:best], (*orphans)[best+1:]...)
		if t.met != nil {
			t.met.Inc(obs.OrphansReinserted)
			t.met.Emit(obs.Event{Kind: obs.EvOrphanReinserted, Level: o.level, N: 1})
		}
		if err := t.insertOrphan(o, orphans); err != nil {
			return err
		}
	}
	return nil
}

// insertOrphan places one entry into a node at its level and
// propagates the structural consequences up the tree.
func (t *Tree) insertOrphan(o orphan, orphans *[]orphan) error {
	rootNode, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	if len(rootNode.entries) == 0 && rootNode.level != o.level {
		// CT3.1: the root is empty (everything below expired or was
		// orphaned); restart the tree at the orphan's level.
		if err := t.replaceEmptyRoot(o.level); err != nil {
			return err
		}
		rootNode, err = t.readNode(t.root)
		if err != nil {
			return err
		}
	}
	if o.level >= t.height {
		return fmt.Errorf("core: orphan level %d above root level %d", o.level, t.height-1)
	}
	path := []*node{rootNode}
	for n := rootNode; n.level > o.level; {
		idx := t.chooseChild(n, o.e.rect)
		child, err := t.readNode(n.entries[idx].child())
		if err != nil {
			return err
		}
		path = append(path, child)
		n = child
	}
	target := path[len(path)-1]
	if err := t.purgeNode(target); err != nil {
		return err
	}
	target.entries = append(target.entries, o.e)
	return t.propagateUp(path, orphans)
}

// replaceEmptyRoot frees the current (empty) root and installs a fresh
// empty root at the given level.
func (t *Tree) replaceEmptyRoot(level int) error {
	old, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	fresh, err := t.allocNode(level)
	if err != nil {
		return err
	}
	if err := t.writeNode(fresh); err != nil {
		return err
	}
	if err := t.setRoot(fresh.id); err != nil {
		return err
	}
	t.height = level + 1
	return t.freeNode(old)
}

// chooseChild implements the R^exp-tree's ChooseSubtree heuristic:
// minimal enlargement of the area integral (Eq. 1), ties broken by
// smaller area integral.  Unlike the R*-tree it does not use overlap
// enlargement, which keeps the algorithm linear (§4.2.2).  Expired
// entries are never chosen while any live entry exists.
func (t *Tree) chooseChild(n *node, r geom.TPRect) int {
	if t.met != nil {
		t.met.Inc(obs.ChooseSubtree)
	}
	if t.cfg.UseOverlapHeuristic && n.level == 1 {
		if best := t.chooseChildOverlap(n, r); best >= 0 {
			return best
		}
	}
	rNew := r
	rNew.TExp = t.decisionExp(&r, n.level-1)
	best := -1
	bestEnl, bestArea := 0.0, 0.0
	for i := range n.entries {
		e := &n.entries[i]
		if t.isExpired(&e.rect, n.level) {
			continue
		}
		// The area integrals ignore expiration times, so the entry's
		// rectangle is used as stored; only the integration bound
		// depends on its decision expiry.
		end := t.metricEnd(t.decisionExp(&e.rect, n.level), rNew.TExp)
		area := geom.AreaIntegral(e.rect, t.Now(), end, t.cfg.Dims)
		union := geom.UnionConservative(e.rect, rNew, t.Now(), t.cfg.Dims)
		enl := geom.AreaIntegral(union, t.Now(), end, t.cfg.Dims) - area
		if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	if best < 0 {
		// Every entry is expired; descend anywhere — the subtree will
		// be purged as soon as it is modified.
		best = 0
	}
	return best
}

// chooseChildOverlap is the R*-tree's overlap-enlargement criterion
// for the level above the leaves, with the objective replaced by its
// time integral (Eq. 1): pick the child whose overlap integral with
// its siblings grows least when extended by the new entry; break ties
// by area-integral enlargement.  Quadratic in the fan-out; the paper
// found it not worth the cost (§4.2.2).  Returns -1 when no live
// child exists.
func (t *Tree) chooseChildOverlap(n *node, r geom.TPRect) int {
	rNew := r
	rNew.TExp = t.decisionExp(&r, n.level-1)
	best := -1
	bestOv, bestEnl := 0.0, 0.0
	for i := range n.entries {
		e := &n.entries[i]
		if t.isExpired(&e.rect, n.level) {
			continue
		}
		er := e.rect
		er.TExp = t.decisionExp(&e.rect, n.level)
		end := t.metricEnd(er.TExp, rNew.TExp)
		union := geom.UnionConservative(er, rNew, t.Now(), t.cfg.Dims)
		var dOv float64
		for j := range n.entries {
			if j == i {
				continue
			}
			s := &n.entries[j]
			if t.isExpired(&s.rect, n.level) {
				continue
			}
			dOv += geom.OverlapIntegral(union, s.rect, t.Now(), end, t.cfg.Dims) -
				geom.OverlapIntegral(er, s.rect, t.Now(), end, t.cfg.Dims)
		}
		enl := geom.AreaIntegral(union, t.Now(), end, t.cfg.Dims) -
			geom.AreaIntegral(er, t.Now(), end, t.cfg.Dims)
		if best < 0 || dOv < bestOv || (dOv == bestOv && enl < bestEnl) {
			best, bestOv, bestEnl = i, dOv, enl
		}
	}
	return best
}

// propagateUp is the paper's PropagateUp (§4.3): walking the loaded
// path bottom-up, it purges expired entries from each modified node,
// resolves overflow (forced reinsertion or split) and underflow
// (orphaning), and refreshes the parent's bounding rectangle.
func (t *Tree) propagateUp(path []*node, orphans *[]orphan) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		isRoot := i == 0
		if err := t.purgeNode(n); err != nil {
			return err
		}
		var parent *node
		if !isRoot {
			parent = path[i-1]
		}
		switch {
		case len(n.entries) > t.lay.cap(n.level):
			if bit := uint64(1) << n.level; !isRoot && t.cfg.ReinsertFrac > 0 && t.reinsertedAt&bit == 0 {
				// PU1, first option: forced reinsertion, once per level
				// per operation.
				t.reinsertedAt |= bit
				moved := t.pickReinsert(n)
				if t.met != nil {
					t.met.Inc(obs.ForcedReinserts)
					t.met.Emit(obs.Event{Kind: obs.EvForcedReinsert, Level: n.level, N: len(moved)})
				}
				for _, e := range moved {
					*orphans = append(*orphans, orphan{e: e, level: n.level})
				}
				if err := t.writeNode(n); err != nil {
					return err
				}
				if err := t.refreshParentEntry(parent, n); err != nil {
					return err
				}
				continue
			}
			// PU1, second option: split.
			sib, err := t.split(n)
			if err != nil {
				return err
			}
			if isRoot {
				return t.growRoot(n, sib)
			}
			if err := t.refreshParentEntry(parent, n); err != nil {
				return err
			}
			parent.entries = append(parent.entries, entry{id: uint32(sib.id), rect: t.computeBR(sib)})
		case !isRoot && len(n.entries) < t.lay.min(n.level):
			// PU2: orphan the live entries and drop the node.
			if t.met != nil {
				t.met.Inc(obs.Condenses)
				t.met.Emit(obs.Event{Kind: obs.EvCondense, Level: n.level, N: len(n.entries)})
			}
			for _, e := range n.entries {
				*orphans = append(*orphans, orphan{e: e, level: n.level})
			}
			if err := t.freeNode(n); err != nil {
				return err
			}
			if err := t.removeParentEntry(parent, n.id); err != nil {
				return err
			}
		default:
			if err := t.writeNode(n); err != nil {
				return err
			}
			if !isRoot {
				if err := t.refreshParentEntry(parent, n); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// refreshParentEntry recomputes the child's bounding rectangle in the
// parent (PU3).  The parent is written when the propagation reaches
// it.
func (t *Tree) refreshParentEntry(parent, child *node) error {
	for i := range parent.entries {
		if parent.entries[i].child() == child.id {
			parent.entries[i].rect = t.computeBR(child)
			return nil
		}
	}
	return fmt.Errorf("core: node %d not found in parent %d", child.id, parent.id)
}

// removeParentEntry drops the entry pointing at the freed child.
func (t *Tree) removeParentEntry(parent *node, child storage.PageID) error {
	for i := range parent.entries {
		if parent.entries[i].child() == child {
			parent.entries = append(parent.entries[:i], parent.entries[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("core: freed node %d not found in parent %d", child, parent.id)
}

// growRoot installs a new root above the two halves of a root split.
func (t *Tree) growRoot(a, b *node) error {
	root, err := t.allocNode(a.level + 1)
	if err != nil {
		return err
	}
	root.entries = []entry{
		{id: uint32(a.id), rect: t.computeBR(a)},
		{id: uint32(b.id), rect: t.computeBR(b)},
	}
	if err := t.writeNode(root); err != nil {
		return err
	}
	t.height = root.level + 1
	return t.setRoot(root.id)
}

// shrinkRoot implements CT4: while the root is internal and holds a
// single entry, its child becomes the new root.
func (t *Tree) shrinkRoot() error {
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		if root.level == 0 || len(root.entries) != 1 {
			return nil
		}
		child := root.entries[0].child()
		if err := t.setRoot(child); err != nil {
			return err
		}
		t.height--
		if err := t.freeNode(root); err != nil {
			return err
		}
	}
}

// pickReinsert removes the ReinsertFrac share of n's entries whose
// center distance integral from the node's bounding rectangle is
// largest (the R*-tree heuristic with the time-integral metric of
// Eq. 1) and returns them ordered closest-first.
func (t *Tree) pickReinsert(n *node) []entry {
	nodeBR := t.computeBR(n)
	end := t.metricEnd(t.decisionExp(&nodeBR, n.level+1))
	type scored struct {
		e entry
		d float64
	}
	s := make([]scored, len(n.entries))
	for i, e := range n.entries {
		s[i] = scored{e, geom.CenterDistIntegral(e.rect, nodeBR, t.Now(), end, t.cfg.Dims)}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].d > s[j].d })
	p := int(t.cfg.ReinsertFrac * float64(len(n.entries)))
	if p < 1 {
		p = 1
	}
	removed := s[:p]
	keep := make([]entry, 0, len(n.entries)-p)
	for _, sc := range s[p:] {
		keep = append(keep, sc.e)
	}
	n.entries = keep
	// Closest-first ordering for reinsertion.
	out := make([]entry, p)
	for i, sc := range removed {
		out[p-1-i] = sc.e
	}
	return out
}
