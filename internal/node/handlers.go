package node

import (
	"crypto/sha256"
	"fmt"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// Everything in this file runs on the node's event loop.

// ringPendingTTL ages out stuck ring negotiations, in ticks.
const ringPendingTTL = 20

// --- connections ------------------------------------------------------------

func (n *Node) registerConn(hello protocol.Hello, conn transport.Conn) {
	if old, ok := n.conns[hello.Peer]; ok {
		if old.conn == conn {
			old.sharing = hello.Sharing
			return
		}
		// Simultaneous dials produce two connections. Both sides must
		// agree which one carries outbound traffic, or they would close
		// each other's transfers mid-flight: the connection dialed by the
		// lower peer id wins. The loser stays open for receiving (its
		// reader keeps feeding the loop) but is never mapped for sending.
		if n.cfg.ID < hello.Peer {
			return // our outbound connection wins; leave the map alone
		}
	}
	n.startPeerConn(hello.Peer, conn, hello.Sharing)
}

// startPeerConn maps conn as the sending connection to peer and starts its
// writer, which runs until dropConnIf unmaps it or the node closes.
func (n *Node) startPeerConn(peer core.PeerID, conn transport.Conn, sharing bool) *peerConn {
	pc := &peerConn{
		n:       n,
		id:      peer,
		conn:    conn,
		sendQ:   make(chan protocol.Message, n.cfg.SendQueue),
		quit:    make(chan struct{}),
		sharing: sharing,
	}
	n.conns[peer] = pc
	n.wg.Add(1)
	go n.writeLoop(pc)
	return pc
}

func (n *Node) dropConnIf(peer core.PeerID, conn transport.Conn) {
	pc, ok := n.conns[peer]
	if !ok || pc.conn != conn {
		return
	}
	delete(n.conns, peer)
	close(pc.quit)
	// Uploads to the departed peer cannot proceed.
	for k, u := range n.uploads {
		if u.to == peer {
			delete(n.uploads, k)
		}
	}
	// Its queued requests are void.
	n.removeIRQ(func(e *irqEntry) bool { return e.peer == peer })
	// Rings containing the peer dissolve ("transfers are terminated if one
	// of the two communicating peers disconnects").
	for id, ring := range n.rings {
		for _, m := range ring.members {
			if m.Peer == peer {
				n.quitRing(id, "member disconnected")
				break
			}
		}
	}
	n.trySchedule()
}

// getConn returns a live connection to peer, dialing if needed. addrHint, if
// non-empty, bypasses the lookup service.
func (n *Node) getConn(peer core.PeerID, addrHint string) *peerConn {
	if pc, ok := n.conns[peer]; ok {
		return pc
	}
	addr := addrHint
	if addr == "" {
		addr, _ = n.cfg.Lookup(peer)
	}
	if addr == "" {
		return nil
	}
	conn, err := n.cfg.Transport.Dial(addr)
	if err != nil && addrHint != "" {
		// The hint goes stale when the peer restarts under a new address;
		// the lookup service knows where it went.
		if cur, ok := n.cfg.Lookup(peer); ok && cur != addrHint {
			addr = cur
			conn, err = n.cfg.Transport.Dial(addr)
		}
	}
	if err != nil {
		n.logf("dial %d at %s: %v", peer, addr, err)
		return nil
	}
	if !n.track(conn) {
		_ = conn.Close() // node is shutting down
		return nil
	}
	pc := n.startPeerConn(peer, conn, false)
	n.wg.Add(1)
	go n.readLoop(conn, peer)
	pc.send(&protocol.Hello{Peer: n.cfg.ID, Sharing: n.cfg.Share})
	return pc
}

// send enqueues without blocking the event loop. The queue is bounded
// (Config.SendQueue); the writer goroutine drains it against the transport's
// own backpressure, so an overflow means the peer has stopped consuming and
// the connection is treated as dead rather than buffered without limit.
func (pc *peerConn) send(msg protocol.Message) {
	select {
	case pc.sendQ <- msg:
	default:
		pc.n.stats.SendOverflows++
		_ = pc.conn.Close()
	}
}

// --- dispatch ---------------------------------------------------------------

func (n *Node) handle(from core.PeerID, msg protocol.Message) {
	switch m := msg.(type) {
	case *protocol.Request:
		n.onRequest(from, m)
	case *protocol.Cancel:
		n.onCancel(from, m)
	case *protocol.Manifest:
		n.onManifest(from, m)
	case *protocol.Block:
		n.onBlock(from, m)
	case *protocol.BlockAck:
		n.onBlockAck(from, m)
	case *protocol.StripeGrant:
		n.onStripeGrant(from, m)
	case *protocol.RingProbe:
		n.onRingProbe(from, m)
	case *protocol.RingAccept:
		n.onRingAccept(from, m)
	case *protocol.RingCommit:
		n.onRingCommit(from, m)
	case *protocol.RingAbort:
		delete(n.rings, m.RingID)
	case *protocol.RingQuit:
		n.onRingQuit(m.RingID)
	default:
		n.logf("unhandled %T from %d", msg, from)
	}
}

// --- downloads ---------------------------------------------------------------

func (n *Node) startDownload(obj catalog.ObjectID, providers map[core.PeerID]string, ch chan error) {
	if _, have := n.store[obj]; have {
		ch <- nil
		return
	}
	dl, ok := n.downloads[obj]
	if !ok {
		dl = &download{
			object:    obj,
			providers: make(map[core.PeerID]string, len(providers)),
			senders:   make(map[core.PeerID]bool),
		}
		n.downloads[obj] = dl
	}
	dl.waiters = append(dl.waiters, ch)
	for p, addr := range providers {
		if p != n.cfg.ID {
			dl.providers[p] = addr
		}
	}
	// "Prior to transmission of a request, the peer inspects the entire
	// request tree" — a ring may satisfy this want without any new request.
	n.tryExchange()
	n.sendRequests(dl)
}

func (n *Node) sendRequests(dl *download) {
	tree := protocol.FromCoreTree(n.myTree().Prune(n.cfg.TreeDepth))
	for p, addr := range dl.providers {
		if pc := n.getConn(p, addr); pc != nil {
			pc.send(&protocol.Request{Object: dl.object, Tree: tree})
		}
	}
}

func (n *Node) onManifest(from core.PeerID, m *protocol.Manifest) {
	dl := n.downloads[m.Object]
	if dl == nil || dl.completed {
		return
	}
	// Validate the manifest before any state changes: a garbage manifest
	// must not win the mediated sender lock (cancelling every honest
	// provider) or register its sender.
	if m.Blocks == 0 || int(m.Blocks) != len(m.Digests) {
		return // malformed
	}
	digs := m.Digests
	if n.cfg.TrustedDigests != nil {
		if trusted, ok := n.cfg.TrustedDigests(m.Object); ok {
			if len(trusted) != int(m.Blocks) {
				n.logf("manifest for %d contradicts trusted digests", m.Object)
				return
			}
			digs = trusted
		}
	}
	if n.mediated() {
		if _, ok := dl.providers[from]; !ok {
			return // not a provider we asked, or one we already flagged
		}
		if dl.blocks == nil {
			// The first valid manifest fixes the geometry: block count,
			// digests, and the stripe interleave. Later manifests must
			// agree on the count; their digests are ignored (first writer
			// wins — the audit plus the post-decrypt checks, or
			// TrustedDigests, catch liars).
			k := n.cfg.Stripe
			if k > len(dl.providers) {
				k = len(dl.providers)
			}
			if k > int(m.Blocks) {
				k = int(m.Blocks)
			}
			if k < 1 {
				k = 1
			}
			dl.blocks = make([][]byte, m.Blocks)
			dl.digests = digs
			dl.total = int(m.Blocks)
			dl.stripes = make([]*stripeState, k)
			for i := range dl.stripes {
				dl.stripes[i] = &stripeState{}
			}
		} else if int(m.Blocks) != dl.total {
			return // contradicts the fixed geometry
		}
		dl.senders[from] = true
		idx, s := dl.stripeOf(from)
		if s == nil {
			idx, s = dl.freeStripe()
			if s == nil {
				// Every stripe is carried; withdraw the request so the
				// surplus provider does not hold an upload slot for us.
				if pc, ok := n.conns[from]; ok {
					pc.send(&protocol.Cancel{Object: m.Object})
				}
				return
			}
		} else {
			if s.verifying || s.verified {
				return // nothing may move underneath an audit or a done stripe
			}
			if m.Session == s.session {
				return // duplicate manifest for the live session
			}
			// The origin opened a new session: its old one is dead (a
			// sender only restarts after the previous session ended) and
			// blocks sealed under the dead session's key can never be
			// verified. Start this stripe over on the new session.
			n.clearStripe(dl, idx)
			s.origin = 0
		}
		n.grantStripe(dl, idx, from, m.Session)
		return
	}
	dl.senders[from] = true
	if dl.blocks != nil {
		return // already allocated
	}
	dl.blocks = make([][]byte, m.Blocks)
	dl.digests = digs
	dl.total = int(m.Blocks)
}

func (n *Node) onBlock(from core.PeerID, b *protocol.Block) {
	dl := n.downloads[b.Object]
	if dl == nil || dl.completed || dl.blocks == nil {
		return
	}
	if int(b.Index) >= dl.total {
		return
	}
	pc := n.conns[from]
	if b.Encrypted || n.mediated() {
		// Sealed blocks are positionally accepted and validated after the
		// audit; plaintext blocks inside a mediated deployment (or sealed
		// ones outside it) are a protocol mismatch and are refused.
		if b.Encrypted && n.mediated() {
			n.onSealedBlock(dl, from, b)
			return
		}
		n.stats.BlocksRejected++
		if pc != nil {
			pc.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, Session: b.Session, OK: false})
		}
		return
	}
	if sha256.Sum256(b.Payload) != dl.digests[b.Index] {
		// Junk block (even a duplicate): reject it and stop trusting the
		// sender (local blacklisting, Section III-B).
		n.stats.BlocksRejected++
		delete(dl.providers, from)
		delete(dl.senders, from)
		if pc != nil {
			pc.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, OK: false})
		}
		return
	}
	if dl.blocks[b.Index] != nil {
		if pc != nil { // duplicate from a second source: ack so it moves on
			pc.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, OK: true})
		}
		return
	}
	dl.blocks[b.Index] = append([]byte(nil), b.Payload...)
	dl.have++
	dl.senders[from] = true
	n.stats.BlocksReceived++
	if pc != nil {
		pc.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, OK: true})
	}
	if dl.have == dl.total {
		n.finishDownload(dl)
	}
}

func (n *Node) finishDownload(dl *download) {
	dl.completed = true
	data := make([]byte, 0)
	for _, blk := range dl.blocks {
		data = append(data, blk...)
	}
	n.store[dl.object] = data
	digs := make([][32]byte, len(dl.blocks))
	for i, blk := range dl.blocks {
		digs[i] = sha256.Sum256(blk)
	}
	n.digests[dl.object] = digs
	n.stats.ObjectsCompleted++
	delete(n.downloads, dl.object)
	for _, ch := range dl.waiters {
		ch <- nil
	}
	// Withdraw outstanding requests.
	for p := range dl.providers {
		if pc, ok := n.conns[p]; ok {
			pc.send(&protocol.Cancel{Object: dl.object})
		}
	}
	// Rings feeding this download dissolve (the paper's common case: "one
	// side terminates first, when it completes its own download").
	for id, ring := range n.rings {
		if ring.committed && ring.gets() == dl.object {
			n.quitRing(id, "download complete")
		}
	}
	n.tryExchange()
	n.trySchedule()
}

// --- serving ------------------------------------------------------------------

func (n *Node) onRequest(from core.PeerID, m *protocol.Request) {
	if !n.cfg.Share {
		return // free-riders serve nobody
	}
	if _, ok := n.store[m.Object]; !ok {
		return
	}
	for _, e := range n.irq {
		if e.peer == from && e.object == m.Object {
			return // one registered request per (peer, object)
		}
	}
	tree, err := m.Tree.ToCoreTree()
	if err != nil {
		tree = &core.Tree{Root: from}
	}
	n.irq = append(n.irq, &irqEntry{peer: from, object: m.Object, tree: tree})
	// "On receipt of each request [the peer inspects] the incoming request
	// tree associated with it."
	n.tryExchange()
	n.trySchedule()
}

func (n *Node) onCancel(from core.PeerID, m *protocol.Cancel) {
	n.removeIRQ(func(e *irqEntry) bool { return e.peer == from && e.object == m.Object })
	delete(n.uploads, upKey{to: from, object: m.Object})
	n.trySchedule()
}

func (n *Node) removeIRQ(drop func(*irqEntry) bool) {
	kept := n.irq[:0]
	for _, e := range n.irq {
		if !drop(e) {
			kept = append(kept, e)
		}
	}
	n.irq = kept
}

// myTree builds this node's request tree from its IRQ.
func (n *Node) myTree() *core.Tree {
	entries := make([]core.IRQEntry, 0, len(n.irq))
	for _, e := range n.irq {
		entries = append(entries, core.IRQEntry{Requester: e.peer, Object: e.object, Attached: e.tree})
	}
	return core.BuildTree(n.cfg.ID, entries, n.cfg.TreeDepth)
}

// searchTree is myTree restricted to requests not already committed to an
// exchange; requests being served as plain transfers stay searchable so a
// newly feasible ring can replace ("upgrade") the plain session, exactly as
// the paper's exchanges displace normal transfers.
func (n *Node) searchTree() *core.Tree {
	entries := make([]core.IRQEntry, 0, len(n.irq))
	for _, e := range n.irq {
		if u, busy := n.uploads[upKey{to: e.peer, object: e.object}]; busy && u.ringID != 0 {
			continue
		}
		entries = append(entries, core.IRQEntry{Requester: e.peer, Object: e.object, Attached: e.tree})
	}
	return core.BuildTree(n.cfg.ID, entries, n.cfg.TreeDepth)
}

// ringFed reports whether a committed ring is already delivering obj to us.
func (n *Node) ringFed(obj catalog.ObjectID) bool {
	for _, r := range n.rings {
		if r.committed && r.gets() == obj {
			return true
		}
	}
	return false
}

// trySchedule grants spare upload capacity to waiting non-exchange requests,
// oldest first (exchange uploads are created by ring commits and preempt).
func (n *Node) trySchedule() {
	if !n.cfg.Share {
		return
	}
	for len(n.uploads) < n.cfg.UploadSlots {
		var pick *irqEntry
		for _, e := range n.irq {
			if _, busy := n.uploads[upKey{to: e.peer, object: e.object}]; busy {
				continue
			}
			if _, have := n.store[e.object]; !have {
				continue
			}
			pick = e
			break
		}
		if pick == nil {
			return
		}
		if !n.startUpload(pick.peer, pick.object, 0, "") {
			// Cannot reach the requester; drop the entry so the queue
			// does not wedge.
			n.removeIRQ(func(e *irqEntry) bool { return e == pick })
		}
	}
}

// startUpload begins a transfer session and pushes the manifest plus the
// first block. ringID 0 marks non-exchange.
func (n *Node) startUpload(to core.PeerID, obj catalog.ObjectID, ringID uint64, addrHint string) bool {
	if existing, ok := n.uploads[upKey{to: to, object: obj}]; ok {
		// A session for this link already runs; adopt it into the ring
		// rather than restarting the transfer ("normal transfer sessions
		// tend to be canceled and replaced by exchanges" — here replacement
		// keeps the progress).
		if ringID != 0 && existing.ringID == 0 {
			existing.ringID = ringID
		}
		return true
	}
	pc := n.getConn(to, addrHint)
	if pc == nil {
		return false
	}
	data := n.store[obj]
	digs := n.digests[obj]
	total := uint32(len(digs))
	if total == 0 {
		return false
	}
	u := &upload{to: to, object: obj, ringID: ringID, total: total, stripes: 1}
	if n.mediated() {
		// Escrow a fresh session key first; blocks follow once the
		// mediator acknowledges the deposit.
		sealKey, session, ok := medSealKey()
		if !ok {
			return false
		}
		u.mediated = true
		u.sealKey = sealKey
		u.session = session
	}
	n.uploads[upKey{to: to, object: obj}] = u
	pc.send(&protocol.Manifest{Object: obj, Size: uint64(len(data)), Blocks: total, Session: u.session, Digests: digs})
	if u.mediated {
		n.startEscrow(u)
	} else {
		n.sendNextBlock(u, pc)
	}
	if ringID == 0 {
		n.stats.RequestsServed++
	}
	return true
}

func (n *Node) sendNextBlock(u *upload, pc *peerConn) {
	data := n.store[u.object]
	start := int(u.next) * n.cfg.BlockSize
	end := start + n.cfg.BlockSize
	if end > len(data) {
		end = len(data)
	}
	payload := data[start:end]
	if n.cfg.Corrupt {
		junk := make([]byte, len(payload))
		for i := range junk {
			junk[i] = byte(i) ^ 0xAA
		}
		payload = junk
	}
	encrypted := false
	if u.mediated {
		sealed, ok := n.sealPayload(u, payload)
		if !ok {
			delete(n.uploads, upKey{to: u.to, object: u.object})
			n.trySchedule()
			return
		}
		payload, encrypted = sealed, true
	}
	pc.send(&protocol.Block{
		Object:    u.object,
		Index:     u.next,
		RingID:    u.ringID,
		Session:   u.session,
		Origin:    n.cfg.ID,
		Recipient: u.to,
		Encrypted: encrypted,
		Payload:   payload,
	})
	u.inFlight = true
	n.stats.BlocksSent++
	if u.ringID != 0 {
		n.stats.ExchangeBlocksSent++
	}
}

func (n *Node) onBlockAck(from core.PeerID, a *protocol.BlockAck) {
	key := upKey{to: from, object: a.Object}
	u, ok := n.uploads[key]
	if !ok || a.Index != u.next {
		return
	}
	if u.mediated && a.Session != u.session {
		return // addressed to a dead session of ours; never advance on it
	}
	u.inFlight = false
	if !a.OK {
		// The receiver rejected our block (it thinks we cheat, or its
		// digest source disagrees); stop the session.
		delete(n.uploads, key)
		n.trySchedule()
		return
	}
	u.next += u.stripes // interleave stride; 1 unless a stripe was granted
	if u.next >= u.total {
		delete(n.uploads, key)
		n.removeIRQ(func(e *irqEntry) bool { return e.peer == from && e.object == a.Object })
		n.trySchedule()
		return
	}
	if n.cfg.BlockDelay <= 0 {
		if pc, ok := n.conns[from]; ok {
			n.sendNextBlock(u, pc)
		}
		return
	}
	// Paced slot: release the next block after the configured delay,
	// re-checking that the session still exists when the timer fires.
	time.AfterFunc(n.cfg.BlockDelay, func() {
		n.post(func() {
			cur, ok := n.uploads[key]
			if !ok || cur != u || u.inFlight {
				return
			}
			if pc, ok := n.conns[from]; ok {
				n.sendNextBlock(u, pc)
			}
		})
	})
}

// --- exchange rings ------------------------------------------------------------

// pendingInitiations reports whether a probe round is already in flight; a
// new search waits for it to settle.
func (n *Node) pendingInitiations() bool {
	for _, r := range n.rings {
		if r.initiator && !r.committed {
			return true
		}
	}
	return false
}

// tryExchange searches this node's request tree for a ring and initiates
// the probe round if one is found.
func (n *Node) tryExchange() {
	if !n.cfg.Share || !n.cfg.Policy.SearchesExchanges() {
		return
	}
	if len(n.irq) == 0 || len(n.downloads) == 0 || n.pendingInitiations() {
		return
	}
	wants := make([]core.Want, 0, len(n.downloads))
	for obj, dl := range n.downloads {
		if n.ringFed(obj) {
			continue // an exchange is already feeding this want
		}
		prov := make(map[core.PeerID]bool, len(dl.providers))
		for p := range dl.providers {
			prov[p] = true
		}
		wants = append(wants, core.Want{Object: obj, Providers: prov})
	}
	if len(wants) == 0 {
		return
	}
	// Map iteration order is irrelevant here: any found ring is validated
	// by the probe round before anything commits.
	ring, _, _, ok := core.FindRing(n.searchTree(), wants, n.cfg.Policy)
	if !ok {
		return
	}
	if _, have := n.store[ring.Members[0].Gives]; !have {
		return
	}
	n.initiateRing(ring)
}

func (n *Node) initiateRing(r *core.Ring) {
	members := make([]protocol.RingMember, len(r.Members))
	for i, m := range r.Members {
		addr := ""
		if m.Peer == n.cfg.ID {
			addr = n.Addr()
		} else if a, ok := n.cfg.Lookup(m.Peer); ok {
			addr = a
		} else {
			return // cannot address every member; abandon
		}
		members[i] = protocol.RingMember{Peer: m.Peer, Gives: m.Gives, Addr: addr}
	}
	n.ringSeq++
	id := n.ringSeq<<16 | uint64(n.cfg.ID)&0xffff
	info := &ringInfo{id: id, members: members, myIdx: 0, initiator: true, accepts: make(map[core.PeerID]bool)}
	n.rings[id] = info
	n.stats.RingsInitiated++
	for _, m := range members[1:] {
		pc := n.getConn(m.Peer, m.Addr)
		if pc == nil {
			delete(n.rings, id)
			return
		}
		pc.send(&protocol.RingProbe{RingID: id, Members: members})
	}
	n.logf("probing ring %d: %v", id, members)
}

// gets returns the object this member receives in the ring.
func (r *ringInfo) gets() catalog.ObjectID {
	prev := (r.myIdx - 1 + len(r.members)) % len(r.members)
	return r.members[prev].Gives
}

func (n *Node) onRingProbe(from core.PeerID, m *protocol.RingProbe) {
	reply := func(ok bool, reason string) {
		if pc := n.conns[from]; pc != nil {
			pc.send(&protocol.RingAccept{RingID: m.RingID, OK: ok, Reason: reason})
		}
	}
	myIdx := -1
	for i, member := range m.Members {
		if member.Peer == n.cfg.ID {
			myIdx = i
		}
	}
	if myIdx < 0 || len(m.Members) < 2 {
		reply(false, "not a member")
		return
	}
	info := &ringInfo{id: m.RingID, members: m.Members, myIdx: myIdx}
	if !n.cfg.Share {
		reply(false, "not sharing")
		return
	}
	if _, have := n.store[m.Members[myIdx].Gives]; !have {
		reply(false, "object gone")
		return
	}
	dl := n.downloads[info.gets()]
	if dl == nil || dl.completed {
		reply(false, "no longer wanted")
		return
	}
	if n.ringFed(info.gets()) {
		reply(false, "already exchanging for this object")
		return
	}
	n.rings[m.RingID] = info
	reply(true, "")
}

func (n *Node) onRingAccept(from core.PeerID, m *protocol.RingAccept) {
	ring, ok := n.rings[m.RingID]
	if !ok || !ring.initiator || ring.committed {
		return
	}
	if !m.OK {
		n.logf("ring %d rejected by %d: %s", m.RingID, from, m.Reason)
		n.abortRing(ring)
		return
	}
	ring.accepts[from] = true
	if len(ring.accepts) == len(ring.members)-1 {
		for _, member := range ring.members[1:] {
			if pc := n.getConn(member.Peer, member.Addr); pc != nil {
				pc.send(&protocol.RingCommit{RingID: m.RingID})
			}
		}
		n.commitRing(ring)
	}
}

func (n *Node) onRingCommit(_ core.PeerID, m *protocol.RingCommit) {
	ring, ok := n.rings[m.RingID]
	if !ok || ring.committed {
		return
	}
	n.commitRing(ring)
}

// commitRing starts this member's upload to its ring successor, preempting a
// non-exchange upload if the slots are full ("these slots will be reclaimed
// as soon as another exchange becomes possible").
func (n *Node) commitRing(ring *ringInfo) {
	ring.committed = true
	ring.age = 0
	n.stats.RingsJoined++
	if len(n.uploads) >= n.cfg.UploadSlots {
		for k, u := range n.uploads {
			if u.ringID == 0 {
				delete(n.uploads, k)
				n.stats.Preemptions++
				break
			}
		}
	}
	succ := ring.members[(ring.myIdx+1)%len(ring.members)]
	me := ring.members[ring.myIdx]
	if !n.startUpload(succ.Peer, me.Gives, ring.id, succ.Addr) {
		n.quitRing(ring.id, "successor unreachable")
	}
}

func (n *Node) abortRing(ring *ringInfo) {
	for _, m := range ring.members[1:] {
		if pc := n.conns[m.Peer]; pc != nil {
			pc.send(&protocol.RingAbort{RingID: ring.id})
		}
	}
	delete(n.rings, ring.id)
}

// quitRing dissolves a ring: notify every other member and stop our ring
// upload.
func (n *Node) quitRing(id uint64, reason string) {
	ring, ok := n.rings[id]
	if !ok {
		return
	}
	n.logf("quitting ring %d: %s", id, reason)
	delete(n.rings, id)
	n.stats.RingsDissolved++
	for i, m := range ring.members {
		if i == ring.myIdx {
			continue
		}
		if pc := n.getConn(m.Peer, m.Addr); pc != nil {
			pc.send(&protocol.RingQuit{RingID: id})
		}
	}
	for k, u := range n.uploads {
		if u.ringID == id {
			delete(n.uploads, k)
		}
	}
	n.trySchedule()
}

func (n *Node) onRingQuit(id uint64) {
	if _, ok := n.rings[id]; !ok {
		return
	}
	delete(n.rings, id)
	n.stats.RingsDissolved++
	for k, u := range n.uploads {
		if u.ringID == id {
			delete(n.uploads, k)
		}
	}
	n.trySchedule()
}

// --- maintenance ---------------------------------------------------------------

func (n *Node) onTick() {
	// Age out stuck ring negotiations.
	for id, ring := range n.rings {
		if ring.committed {
			continue
		}
		ring.age++
		if ring.age > ringPendingTTL {
			if ring.initiator {
				n.abortRing(ring)
			} else {
				delete(n.rings, id)
			}
		}
	}
	// Stalled downloads re-issue their requests (sources may have
	// preempted us for an exchange, or vanished); after MaxRetries rounds
	// with zero progress the download fails.
	for _, dl := range n.downloads {
		if dl.completed {
			continue
		}
		if n.mediated() && dl.stripes != nil {
			n.tickStripes(dl)
		}
		if dl.auditing() {
			// An in-flight audit is progress; its own bounded retries and
			// failover decide the outcome, not the stall counter.
			continue
		}
		if dl.have == dl.lastHave {
			dl.stalled++
		} else {
			dl.stalled = 0
			dl.retries = 0
			dl.lastHave = dl.have
		}
		if dl.stalled >= n.cfg.StallTicks {
			dl.stalled = 0
			dl.retries++
			if len(dl.providers) == 0 || dl.retries > n.cfg.MaxRetries {
				for _, ch := range dl.waiters {
					ch <- fmt.Errorf("%w: object %d", ErrNoSource, dl.object)
				}
				dl.waiters = nil
				delete(n.downloads, dl.object)
				continue
			}
			if n.mediated() && dl.stripes != nil {
				// Every stripe went quiet at once (or none was ever
				// granted); partial sealed blocks are unverifiable without
				// their origins, so start over and let the manifest race
				// re-fix the geometry with whoever is still alive.
				n.resetMediatedDownload(dl)
			}
			n.sendRequests(dl)
		}
	}
	n.tryExchange()
	n.trySchedule()
}
