package node

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/perfstats"
	"barter/internal/protocol"
)

// The mediated exchange of Section III-B, run natively on the block path
// when Config.Mediator is set. Everything here runs on the node's event
// loop except the escrow and audit RPCs, which block on the mediator tier
// and therefore run on their own goroutines, posting their results back.
//
// Sender side: every upload session draws a fresh random key and session
// id, escrows the key with the owning mediator shard before the first
// block, and seals each block — payload plus the origin/recipient control
// header — under it. The first block waits for both the escrow ack and
// the receiver's StripeGrant, which places the session in the receiver's
// interleave (indices congruent to the stripe number modulo the stripe
// count).
//
// Receiver side: a mediated download stripes across up to Config.Stripe
// origins. Each origin that answers the manifest race is granted one
// stripe — an interleaved residue class of block indices — and is
// escrowed, audited, and decrypted independently, because the audit is
// per-origin and each session's exchange id (sender, recipient, object,
// session) is distinct. Sealed blocks are acknowledged positionally,
// strictly scoped to the granted origin's lane and current session (blocks
// of a dead session were sealed under a key the audit will never release).
// When a stripe fills, the receiver submits randomly chosen sample blocks
// from that stripe for audit; a released key decrypts the stripe and the
// plaintext is digest-checked block by block. An audit rejection proves
// that origin cheated — the tier has flagged it — and costs only its own
// stripe: the junk is discarded and the freed stripe is offered to the
// remaining providers. The download completes when every stripe has
// verified and decrypted clean.

// medAuditSamples is how many sealed blocks a receiver submits per audit.
const medAuditSamples = 3

func (n *Node) mediated() bool { return n.cfg.Mediator != nil }

// stripeState tracks one stripe of a mediated download: the origin it is
// granted to, that origin's live session, and the stripe's own progress,
// stall, and audit state.
type stripeState struct {
	origin    core.PeerID // 0 while the stripe waits for an origin
	session   uint64
	have      int // sealed blocks held in this stripe
	lastHave  int
	stalled   int
	verifying bool
	verified  bool
}

// stripeSpan is how many block indices of total fall in stripe idx of k.
func stripeSpan(total, k, idx int) int {
	return (total - idx + k - 1) / k
}

// stripeOf returns origin's active stripe — the one it is still filling or
// auditing — or (-1, nil). Verified stripes don't count: an origin that
// finished its lane may claim a freed one with a later session (an origin
// runs at most one upload session per object at a time, so it never fills
// two stripes concurrently).
func (dl *download) stripeOf(origin core.PeerID) (int, *stripeState) {
	for i, s := range dl.stripes {
		if s.origin == origin && !s.verified {
			return i, s
		}
	}
	return -1, nil
}

// stripeForSession returns the stripe carrying origin's given session, or
// (-1, nil). Sessions are unique per upload, so this is unambiguous even
// when one origin has filled several stripes over the download's lifetime.
func (dl *download) stripeForSession(origin core.PeerID, session uint64) (int, *stripeState) {
	for i, s := range dl.stripes {
		if s.origin == origin && s.session == session {
			return i, s
		}
	}
	return -1, nil
}

// freeStripe returns the lowest unassigned stripe, or (-1, nil).
func (dl *download) freeStripe() (int, *stripeState) {
	for i, s := range dl.stripes {
		if s.origin == 0 {
			return i, s
		}
	}
	return -1, nil
}

// auditing reports whether any stripe has an audit in flight.
func (dl *download) auditing() bool {
	for _, s := range dl.stripes {
		if s.verifying {
			return true
		}
	}
	return false
}

// medExchangeID derives the escrow identifier both sides of a transfer
// agree on without negotiation: a hash of (sender, recipient, object,
// session). Scoping it to the recipient keeps concurrent uploads of one
// object to different peers on distinct escrow entries; scoping it to the
// session keeps an origin's next session to the same recipient from
// re-depositing over the key of a stripe whose audit is still in flight.
func medExchangeID(sender, recipient core.PeerID, obj catalog.ObjectID, session uint64) uint64 {
	h := uint64(uint32(sender))
	h = (h ^ uint64(uint32(recipient))*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h = (h ^ uint64(uint32(obj))*0x94d049bb133111eb) ^ h>>29
	h = (h ^ session) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// medSealKey draws a fresh random key and session id for one upload
// session. The key is secret to the sender until the mediator releases it:
// receivers earn it by passing the audit, never by computing it. (A
// derivable key would let any peer decrypt without auditing — and forge
// evidence against others.) The session id travels in the clear on every
// manifest, block, and ack, so neither side ever mixes traffic from a
// sender's dead session into a live one.
func medSealKey() (key [16]byte, session uint64, ok bool) {
	var buf [24]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return key, 0, false
	}
	copy(key[:], buf[:16])
	session = binary.BigEndian.Uint64(buf[16:])
	if session == 0 {
		session = 1 // zero marks unmediated traffic
	}
	return key, session, true
}

// startEscrow runs the sender's deposit off-loop and releases the first
// block once the mediator acknowledged the escrow. Until then the upload
// exists but sends nothing; a failed deposit drops the session (the
// requester's entry stays queued, so a later schedule retries).
func (n *Node) startEscrow(u *upload) {
	key := upKey{to: u.to, object: u.object}
	exchange := medExchangeID(n.cfg.ID, u.to, u.object, u.session)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		err := n.cfg.Mediator.Deposit(exchange, n.cfg.ID, u.object, u.sealKey)
		n.post(func() {
			cur, ok := n.uploads[key]
			if !ok || cur != u {
				return // session ended while the deposit was in flight
			}
			if err != nil {
				n.logf("escrow for object %d failed: %v", u.object, err)
				delete(n.uploads, key)
				n.trySchedule()
				return
			}
			u.escrowed = true
			n.maybeStartMediatedSend(u)
		})
	}()
}

// maybeStartMediatedSend releases a mediated upload's first block once both
// gates are open — the escrow deposit is acknowledged and the receiver has
// granted a stripe. The two acks race; whichever lands second triggers the
// send.
func (n *Node) maybeStartMediatedSend(u *upload) {
	if !u.escrowed || !u.granted || u.inFlight {
		return
	}
	if u.next >= u.total {
		// An empty stripe (more stripes than blocks); nothing to send.
		delete(n.uploads, upKey{to: u.to, object: u.object})
		n.trySchedule()
		return
	}
	if pc, ok := n.conns[u.to]; ok {
		n.sendNextBlock(u, pc)
	}
}

// onStripeGrant places a mediated upload in the receiver's interleave:
// the session serves block indices congruent to Stripe modulo Stripes,
// starting at Stripe.
func (n *Node) onStripeGrant(from core.PeerID, g *protocol.StripeGrant) {
	u, ok := n.uploads[upKey{to: from, object: g.Object}]
	if !ok || !u.mediated || g.Session != u.session {
		return // no such session (or a stale grant for a dead one)
	}
	if g.Stripes == 0 || g.Stripe >= g.Stripes || u.granted {
		return
	}
	u.granted = true
	u.stripe, u.stripes = g.Stripe, g.Stripes
	u.next = g.Stripe
	n.maybeStartMediatedSend(u)
}

// sealPayload wraps one outgoing block for a mediated upload.
func (n *Node) sealPayload(u *upload, payload []byte) ([]byte, bool) {
	sealed, err := mediator.Seal(u.sealKey, n.cfg.ID, u.to, u.object, u.next, payload)
	if err != nil {
		n.logf("seal block %d of %d: %v", u.next, u.object, err)
		return nil, false
	}
	return sealed, true
}

// grantStripe assigns stripe idx of dl to origin under the session its
// manifest announced and tells the origin so (the grant releases the
// origin's first block, together with its escrow ack).
func (n *Node) grantStripe(dl *download, idx int, origin core.PeerID, session uint64) {
	s := dl.stripes[idx]
	s.origin = origin
	s.session = session
	n.stats.StripesGranted++
	perfstats.AddStripeGranted()
	if pc, ok := n.conns[origin]; ok {
		pc.send(&protocol.StripeGrant{
			Object:  dl.object,
			Session: session,
			Stripe:  uint32(idx),
			Stripes: uint32(len(dl.stripes)),
		})
	}
}

// clearStripe discards a stripe's sealed blocks and progress so the same
// or another origin can fill it again. Verified stripes are never cleared
// here — their blocks are already plaintext — only by a full reset.
func (n *Node) clearStripe(dl *download, idx int) {
	s := dl.stripes[idx]
	for i := idx; i < dl.total; i += len(dl.stripes) {
		if dl.blocks[i] != nil {
			dl.blocks[i] = nil
			dl.have--
		}
	}
	s.have, s.lastHave, s.stalled = 0, 0, 0
	s.verifying, s.verified = false, false
}

// reassignStripe takes a stripe back from its origin (stalled, departed,
// or proven cheating) and frees it for the next manifest to claim. The
// origin gets a Cancel: if its session half-survived, the cancel tears it
// down so a re-request starts a fresh session instead of wedging against
// the stale one.
func (n *Node) reassignStripe(dl *download, idx int) {
	s := dl.stripes[idx]
	if s.origin != 0 {
		if pc, ok := n.conns[s.origin]; ok {
			pc.send(&protocol.Cancel{Object: dl.object})
		}
	}
	n.clearStripe(dl, idx)
	s.origin = 0
	s.session = 0
	n.stats.StripesReassigned++
	perfstats.AddStripeReassigned()
}

// tickStripes runs per-stripe stall recovery on the maintenance timer: a
// stripe whose origin went quiet (departed mid-transfer, or withdrew) is
// taken back and re-offered, without disturbing the stripes that are
// progressing. Unclaimed stripes periodically re-issue the download's
// requests so a freed lane gets claimed — by a fresh provider, or by an
// origin that has finished its own lane and re-manifests with a new
// session. Runs once per tick per mediated download.
func (n *Node) tickStripes(dl *download) {
	for idx, s := range dl.stripes {
		if s.verified || s.verifying {
			continue
		}
		if s.origin == 0 {
			s.stalled++
			if s.stalled >= n.cfg.StallTicks {
				s.stalled = 0
				n.sendRequests(dl)
			}
			continue
		}
		if s.have != s.lastHave {
			s.lastHave = s.have
			s.stalled = 0
			continue
		}
		s.stalled++
		if s.stalled < n.cfg.StallTicks {
			continue
		}
		n.logf("stripe %d of object %d stalled at origin %d; reassigning", idx, dl.object, s.origin)
		n.reassignStripe(dl, idx)
		n.sendRequests(dl)
	}
}

// onSealedBlock stores one encrypted block of a mediated transfer; content
// cannot be validated until the audit releases the key, so acceptance is
// positional only — but strictly scoped to the sending origin's granted
// stripe and current session, because blocks of a dead session were sealed
// under a key the audit will never release.
func (n *Node) onSealedBlock(dl *download, from core.PeerID, b *protocol.Block) {
	pc := n.conns[from]
	nack := func() {
		n.stats.BlocksRejected++
		if pc != nil {
			pc.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, Session: b.Session, OK: false})
		}
	}
	if !n.mediated() || dl.stripes == nil {
		nack()
		return
	}
	idx, s := dl.stripeForSession(from, b.Session)
	if s == nil || s.verifying || s.verified {
		nack()
		return
	}
	if int(b.Index)%len(dl.stripes) != idx {
		nack() // out of the granted lane
		return
	}
	if dl.blocks[b.Index] == nil {
		dl.blocks[b.Index] = append([]byte(nil), b.Payload...)
		dl.have++
		s.have++
		n.stats.BlocksReceived++
	}
	dl.senders[from] = true
	if pc != nil {
		pc.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, Session: b.Session, OK: true})
	}
	if s.have == stripeSpan(dl.total, len(dl.stripes), idx) {
		n.startStripeVerify(dl, idx)
	}
}

// startStripeVerify submits one filled stripe's sample blocks for audit
// off-loop. The audit is per-origin: samples come only from the stripe's
// own indices, and the released key opens only that origin's session.
func (n *Node) startStripeVerify(dl *download, idx int) {
	s := dl.stripes[idx]
	if s.verifying || s.verified {
		return
	}
	s.verifying = true
	n.stats.MedVerifies++
	sender, session, obj := s.origin, s.session, dl.object
	k := len(dl.stripes)
	span := stripeSpan(dl.total, k, idx)
	// Sample positions must be unpredictable: a cheater who can guess
	// them serves honest bytes exactly there and junk everywhere else,
	// passing every audit. (The post-decrypt digest check still covers
	// all blocks, but its digests come from the sender's manifest unless
	// TrustedDigests is set — the random audit is the tier-level defense.)
	count := min(medAuditSamples, span, mediator.MaxVerifySamples)
	samples := make([]protocol.Block, 0, count)
	budget := mediator.MaxVerifyBytes
	for _, off := range randomSampleIndices(span, count) {
		bi := idx + off*k // offset within the stripe -> absolute block index
		if len(samples) > 0 && budget < len(dl.blocks[bi]) {
			break // stay under the mediator's audit limits
		}
		budget -= len(dl.blocks[bi])
		samples = append(samples, protocol.Block{
			Object:    obj,
			Index:     uint32(bi),
			Origin:    sender,
			Recipient: n.cfg.ID,
			Encrypted: true,
			Payload:   dl.blocks[bi],
		})
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		key, err := n.cfg.Mediator.Verify(medExchangeID(sender, n.cfg.ID, obj, session), n.cfg.ID, sender, obj, samples)
		n.post(func() { n.finishStripeVerify(dl, idx, sender, session, key, err) })
	}()
}

// randomSampleIndices draws count distinct indices in [0, total) from the
// system entropy source; on the (practically impossible) failure of that
// source it falls back to the first count indices rather than not auditing
// at all.
func randomSampleIndices(total, count int) []int {
	out := make([]int, 0, count)
	seen := make(map[int]bool, count)
	var buf [8]byte
	for len(out) < count {
		if _, err := rand.Read(buf[:]); err != nil {
			for i := 0; len(out) < count; i++ {
				if !seen[i] {
					out = append(out, i)
				}
			}
			return out
		}
		idx := int(binary.BigEndian.Uint64(buf[:]) % uint64(total))
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// finishStripeVerify applies one stripe's audit verdict back on the event
// loop. Verdicts are matched against the stripe's current origin and
// session: anything stale (the stripe was reassigned or reset while the
// RPC was in flight) is discarded.
func (n *Node) finishStripeVerify(dl *download, idx int, sender core.PeerID, session uint64, key [16]byte, err error) {
	if cur, ok := n.downloads[dl.object]; !ok || cur != dl || dl.completed {
		return
	}
	if idx >= len(dl.stripes) {
		return // the geometry was reset underneath the audit
	}
	s := dl.stripes[idx]
	if s.origin != sender || s.session != session || !s.verifying {
		return // stale verdict; the stripe has moved on
	}
	s.verifying = false
	if err != nil {
		switch {
		case errors.Is(err, medclient.ErrRejected):
			// The tier proved this origin cheated and flagged it; drop the
			// junk and the provider, free its stripe for whoever is left.
			n.logf("audit of %d for object %d stripe %d rejected: %v", sender, dl.object, idx, err)
			n.stats.MedRejects++
			delete(dl.providers, sender)
			delete(dl.senders, sender)
		case errors.Is(err, medclient.ErrBadRequest):
			// The mediator will never judge this audit — the object is
			// outside its registry, or the request exceeds limits no retry
			// changes. Re-transferring would livelock; fail the download.
			n.logf("audit for object %d unjudgeable: %v", dl.object, err)
			for _, ch := range dl.waiters {
				ch <- fmt.Errorf("%w: object %d: mediated audit refused: %v", ErrNoSource, dl.object, err)
			}
			dl.waiters = nil
			n.resetMediatedDownload(dl)
			delete(n.downloads, dl.object)
			return
		default:
			// Transient: the escrow is missing (shard restarted) or the
			// tier was unreachable. Keep the provider — a fresh session
			// deposits a fresh escrow and can reclaim the stripe.
			n.logf("audit for object %d stripe %d inconclusive: %v", dl.object, idx, err)
		}
		n.reassignStripe(dl, idx)
		n.sendRequests(dl)
		return
	}
	k := len(dl.stripes)
	for i := idx; i < dl.total; i += k {
		origin, recipient, plain, oerr := mediator.Open(key, dl.object, uint32(i), dl.blocks[i])
		if oerr != nil || origin != sender || recipient != n.cfg.ID || sha256.Sum256(plain) != dl.digests[i] {
			// The sampled audit passed but the stripe does not decrypt
			// clean: treat the origin as a cheater locally.
			n.logf("post-audit validation of block %d from %d failed", i, sender)
			n.stats.MedRejects++
			delete(dl.providers, sender)
			delete(dl.senders, sender)
			n.reassignStripe(dl, idx)
			n.sendRequests(dl)
			return
		}
		dl.blocks[i] = plain
	}
	s.verified = true
	done := true
	unclaimed := false
	for _, st := range dl.stripes {
		if !st.verified {
			done = false
		}
		if st.origin == 0 {
			unclaimed = true
		}
	}
	if done {
		n.finishDownload(dl)
		return
	}
	if unclaimed {
		// A freed lane is waiting and this origin just became available
		// for it: re-issue the requests so it (or anyone else) can
		// re-manifest and claim the stripe now, not a stall timeout later.
		n.sendRequests(dl)
	}
}

// resetMediatedDownload discards a mediated transfer's sealed state — all
// stripes at once — so the download can start over, re-fixing its geometry
// from the next manifest race. Every assigned origin gets a Cancel: if its
// session half-survived (a block in flight we will never ack), the cancel
// tears it down so a re-request starts a fresh session instead of wedging
// against the stale one.
func (n *Node) resetMediatedDownload(dl *download) {
	for _, s := range dl.stripes {
		if s.origin == 0 {
			continue
		}
		if pc, ok := n.conns[s.origin]; ok {
			pc.send(&protocol.Cancel{Object: dl.object})
		}
	}
	dl.blocks = nil
	dl.digests = nil
	dl.have = 0
	dl.total = 0
	dl.lastHave = 0
	dl.stalled = 0
	dl.stripes = nil
}
