package sim

import (
	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/eventq"
	"barter/internal/strategy"
)

// download tracks one outstanding object download at a requesting peer. It
// may be fed by several concurrent sessions from different sources (the
// system supports partial, multi-source transfers).
type download struct {
	object        catalog.ObjectID
	requestedAt   float64
	receivedKbits float64
	// providers is the lookup result plus any later-learned holders; it is
	// the set a ring search may close through.
	providers map[core.PeerID]bool
	// requestedFrom lists the servers holding a registered request for this
	// download, in registration order.
	requestedFrom []core.PeerID
	// sessions currently feeding this download.
	sessions []*session
}

// request is one incoming-request-queue entry at a serving peer.
type request struct {
	requester core.PeerID
	object    catalog.ObjectID
	arrival   float64
	// session is non-nil while this entry is being served by the queue's
	// owner.
	session *session
}

// irqKey identifies an IRQ entry; a peer holds at most one registered
// request per (requester, object) pair, as in the paper.
type irqKey struct {
	requester core.PeerID
	object    catalog.ObjectID
}

// session is one active transfer: src uploads object to dst at exactly one
// slot's rate, one block per event. ringSize 1 marks a non-exchange
// transfer; ringSize >= 2 marks membership in an exchange ring of that size.
//
// Sessions come from (and return to) the engine's free list, and a session
// is its own block-arrival event: the per-block hot path — the single most
// frequent event in any run — schedules without allocating a closure.
type session struct {
	sim      *Sim
	src, dst core.PeerID
	object   catalog.ObjectID
	ringSize int
	ring     *ringState
	entry    *request  // IRQ entry at src
	dl       *download // download at dst
	startAt  float64
	sent     float64 // kbits delivered so far
	blockEv  eventq.Handle
	closed   bool
}

// Fire implements eventq.Event: one block of the transfer arrives.
func (sess *session) Fire(float64) {
	sim := sess.sim
	sim.reap()
	sim.onBlock(sess)
}

// ringState ties the sessions of one exchange ring together: when any
// member stops (completes its download, departs, or loses the object), the
// whole ring dissolves and the surviving members reschedule.
type ringState struct {
	sessions  []*session
	dissolved bool
}

// peerState is the full simulator state of one peer.
type peerState struct {
	id core.PeerID
	// class indexes the run's population mix; strat points at the class's
	// strategy definition (stable for the run).
	class int
	strat *strategy.Strategy
	// sharing is the peer's current contribution state. For most classes it
	// is fixed at strat.Share; adaptive free-riders toggle it at runtime.
	sharing bool
	online  bool
	// ulSlots is this peer's upload-slot capacity: the configured slots,
	// throttled by the strategy for partial sharers.
	ulSlots int

	interest *catalog.Interest
	store    map[catalog.ObjectID]bool
	storeCap int

	// pending downloads; pendingOrder keeps deterministic want ordering.
	pending      map[catalog.ObjectID]*download
	pendingOrder []catalog.ObjectID

	irq      []*request
	irqIndex map[irqKey]*request

	uploads   []*session
	downloads []*session

	// retryEv is the pending lookup-retry event, if any.
	retryEv eventq.Handle
	// adjacency scratch reused across ring searches.
	adjScratch []core.Edge
	// wantScratch and want1 back wants()/wantFor(); see those methods for
	// why reuse is safe.
	wantScratch []core.Want
	want1       [1]core.Want
}

func (p *peerState) hasFreeUploadSlot() bool            { return len(p.uploads) < p.ulSlots }
func (p *peerState) hasFreeDownloadSlot(slots int) bool { return len(p.downloads) < slots }

// uploadsInExchange reports whether any of the peer's exchange uploads
// carries obj. The uploads slice is bounded by the slot count, so the scan
// is cheaper than materializing a set.
func (p *peerState) uploadsInExchange(obj catalog.ObjectID) bool {
	for _, up := range p.uploads {
		if up.ringSize > 1 && up.object == obj {
			return true
		}
	}
	return false
}

// preemptibleUpload returns the most recently started non-exchange upload,
// or nil. The paper reclaims non-exchange slots "as soon as another exchange
// becomes possible"; preempting the youngest session sacrifices the least
// accumulated work.
func (p *peerState) preemptibleUpload() *session {
	for i := len(p.uploads) - 1; i >= 0; i-- {
		if s := p.uploads[i]; s.ringSize == 1 {
			return s
		}
	}
	return nil
}

// removeSession deletes s from a session slice, preserving order (slices are
// short: bounded by slot counts).
func removeSession(ss []*session, s *session) []*session {
	for i, v := range ss {
		if v == s {
			return append(ss[:i], ss[i+1:]...)
		}
	}
	return ss
}

// addPending registers a new download.
func (p *peerState) addPending(dl *download) {
	p.pending[dl.object] = dl
	p.pendingOrder = append(p.pendingOrder, dl.object)
}

// removePending unregisters a download (completed or abandoned).
func (p *peerState) removePending(obj catalog.ObjectID) {
	delete(p.pending, obj)
	for i, o := range p.pendingOrder {
		if o == obj {
			p.pendingOrder = append(p.pendingOrder[:i], p.pendingOrder[i+1:]...)
			return
		}
	}
}

// wants materializes the peer's current wants for a ring search, in
// deterministic pending order. The returned slice is the peer's reusable
// scratch: ring searches never retain it (rings copy the object they
// close on), and no call path builds a second wants slice for the same
// peer while one is in use.
func (p *peerState) wants() []core.Want {
	out := p.wantScratch[:0]
	for _, obj := range p.pendingOrder {
		dl := p.pending[obj]
		out = append(out, core.Want{Object: obj, Providers: dl.providers})
	}
	p.wantScratch = out
	return out
}

// wantFor materializes a single-want slice for the targeted
// before-transmission search, backed by its own one-element scratch so it
// cannot collide with a wants() slice live on the same stack.
func (p *peerState) wantFor(dl *download) []core.Want {
	p.want1[0] = core.Want{Object: dl.object, Providers: dl.providers}
	return p.want1[:]
}

// addIRQ appends an entry if capacity allows and no duplicate exists; it
// returns the entry, or nil if rejected.
func (p *peerState) addIRQ(req *request, capacity int) *request {
	k := irqKey{requester: req.requester, object: req.object}
	if _, dup := p.irqIndex[k]; dup {
		return nil
	}
	if len(p.irq) >= capacity {
		return nil
	}
	p.irq = append(p.irq, req)
	p.irqIndex[k] = req
	return req
}

// dropIRQ removes the entry for (requester, object), if present.
func (p *peerState) dropIRQ(requester core.PeerID, object catalog.ObjectID) *request {
	k := irqKey{requester: requester, object: object}
	req, ok := p.irqIndex[k]
	if !ok {
		return nil
	}
	delete(p.irqIndex, k)
	for i, e := range p.irq {
		if e == req {
			p.irq = append(p.irq[:i], p.irq[i+1:]...)
			break
		}
	}
	return req
}

// lookupIRQ returns the entry for (requester, object), or nil.
func (p *peerState) lookupIRQ(requester core.PeerID, object catalog.ObjectID) *request {
	return p.irqIndex[irqKey{requester: requester, object: object}]
}
