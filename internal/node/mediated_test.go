package node

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
)

// medNet extends testNet with a mediator tier: every spawned node gets its
// own shard-aware client, as live deployments would.
type medNet struct {
	*testNet
	cluster *mediator.Cluster
	clients []*medclient.Client
}

// newMedNet builds a testNet plus an n-shard mediator cluster whose oracle
// digests the canonical payload() content for objects 1..32 at the test
// block size.
func newMedNet(t *testing.T, shards, objSize int) *medNet {
	t.Helper()
	tn := newTestNet(t)
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) {
		if o < 1 || o > 32 {
			return nil, false
		}
		data := payload(o, objSize)
		var digs [][32]byte
		for off := 0; off < len(data); off += 1024 {
			end := min(off+1024, len(data))
			digs = append(digs, sha256.Sum256(data[off:end]))
		}
		return digs, true
	}
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = "mem://med-" + string(rune('0'+i))
	}
	cluster, err := mediator.NewCluster(tn.tr, addrs, oracle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return &medNet{testNet: tn, cluster: cluster}
}

// spawnMediated starts a node wired to the mediator tier.
func (mn *medNet) spawnMediated(id core.PeerID, mutate func(*Config)) *Node {
	mn.t.Helper()
	mc, err := medclient.New(medclient.Config{
		Transport: mn.tr,
		Seeds:     mn.cluster.Addrs(),
		Backoff:   5 * time.Millisecond,
	})
	if err != nil {
		mn.t.Fatal(err)
	}
	n := mn.spawn(id, func(cfg *Config) {
		cfg.Mediator = mc
		if mutate != nil {
			mutate(cfg)
		}
	})
	// The node must be closed before its client; testNet's cleanup closes
	// the node, and cleanups run LIFO, so register the client after.
	mn.t.Cleanup(mc.Close)
	mn.clients = append(mn.clients, mc)
	return n
}

// TestMediatedTransferCompletes is the happy path: blocks travel sealed,
// the receiver audits, decrypts, and lands the exact bytes.
func TestMediatedTransferCompletes(t *testing.T) {
	const size = 8 * 1024
	mn := newMedNet(t, 1, size)
	server := mn.spawnMediated(1, nil)
	clientN := mn.spawnMediated(2, nil)
	obj := catalog.ObjectID(5)
	data := payload(obj, size)
	server.AddObject(obj, data)

	ch := clientN.Download(obj, map[core.PeerID]string{1: server.Addr()})
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := clientN.Object(obj); !bytes.Equal(got, data) {
		t.Fatalf("downloaded %d bytes, content mismatch", len(got))
	}
	st := clientN.Stats()
	if st.MedVerifies == 0 {
		t.Fatal("no audit was submitted for a mediated transfer")
	}
	if st.MedRejects != 0 {
		t.Fatalf("honest transfer produced %d rejects", st.MedRejects)
	}
}

// TestMediatedCheaterFlagged: with only a corrupt provider, the transfer
// completes in sealed form, the audit rejects it, the tier flags the
// cheater, and the download fails for want of honest sources.
func TestMediatedCheaterFlagged(t *testing.T) {
	const size = 4 * 1024
	mn := newMedNet(t, 2, size)
	cheater := mn.spawnMediated(1, func(cfg *Config) { cfg.Corrupt = true })
	victim := mn.spawnMediated(2, func(cfg *Config) {
		cfg.StallTicks = 5
		cfg.MaxRetries = 2
	})
	obj := catalog.ObjectID(3)
	cheater.AddObject(obj, payload(obj, size))

	ch := victim.Download(obj, map[core.PeerID]string{1: cheater.Addr()})
	err := WaitFor(ch, testTimeout)
	if !errors.Is(err, ErrNoSource) {
		t.Fatalf("download from a lone cheater: %v, want ErrNoSource", err)
	}
	if mn.cluster.Flagged(1) == 0 {
		t.Fatal("mediator tier never flagged the cheater")
	}
	st := victim.Stats()
	if st.MedRejects == 0 {
		t.Fatal("victim recorded no audit rejection")
	}
	if victim.Has(obj) {
		t.Fatal("junk object landed in the store")
	}
}

// TestMediatedRecoversFromCheater: a corrupt and an honest provider; even
// if the cheater wins the manifest race, the audit rejection re-requests
// and the honest source completes the download.
func TestMediatedRecoversFromCheater(t *testing.T) {
	const size = 4 * 1024
	mn := newMedNet(t, 2, size)
	cheater := mn.spawnMediated(1, func(cfg *Config) { cfg.Corrupt = true })
	honest := mn.spawnMediated(2, nil)
	victim := mn.spawnMediated(3, func(cfg *Config) { cfg.StallTicks = 5 })
	obj := catalog.ObjectID(7)
	data := payload(obj, size)
	cheater.AddObject(obj, data)
	honest.AddObject(obj, data)

	ch := victim.Download(obj, map[core.PeerID]string{
		1: cheater.Addr(),
		2: honest.Addr(),
	})
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := victim.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch after recovering from the cheater")
	}
}

// TestStripedDownloadAcrossOrigins: three honest origins each carry one
// stripe of the same object; the receiver escrows and audits each stripe
// against its own origin and lands the exact bytes.
func TestStripedDownloadAcrossOrigins(t *testing.T) {
	const size = 12 * 1024 // 12 blocks at the 1 KiB test block size
	mn := newMedNet(t, 2, size)
	obj := catalog.ObjectID(4)
	data := payload(obj, size)
	providers := make(map[core.PeerID]string)
	for id := core.PeerID(1); id <= 3; id++ {
		srv := mn.spawnMediated(id, nil)
		srv.AddObject(obj, data)
		providers[id] = srv.Addr()
	}
	receiver := mn.spawnMediated(9, func(cfg *Config) { cfg.Stripe = 3 })

	ch := receiver.Download(obj, providers)
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := receiver.Object(obj); !bytes.Equal(got, data) {
		t.Fatalf("downloaded %d bytes, content mismatch", len(got))
	}
	st := receiver.Stats()
	if st.StripesGranted < 3 {
		t.Fatalf("granted %d stripes, want >= 3", st.StripesGranted)
	}
	if st.MedVerifies < 3 {
		t.Fatalf("submitted %d audits, want one per stripe (>= 3)", st.MedVerifies)
	}
	if st.MedRejects != 0 {
		t.Fatalf("honest striped transfer produced %d rejects", st.MedRejects)
	}
}

// TestStripedCheaterReassigned: one corrupt origin among three; its
// stripe's audit rejects, the tier flags it, only its stripe is taken
// back, and an honest origin that finished its own lane re-manifests to
// fill the freed one — the download still lands the exact bytes.
func TestStripedCheaterReassigned(t *testing.T) {
	const size = 12 * 1024
	mn := newMedNet(t, 2, size)
	obj := catalog.ObjectID(6)
	data := payload(obj, size)
	cheater := mn.spawnMediated(1, func(cfg *Config) { cfg.Corrupt = true })
	cheater.AddObject(obj, data)
	providers := map[core.PeerID]string{1: cheater.Addr()}
	for id := core.PeerID(2); id <= 3; id++ {
		srv := mn.spawnMediated(id, nil)
		srv.AddObject(obj, data)
		providers[id] = srv.Addr()
	}
	receiver := mn.spawnMediated(9, func(cfg *Config) {
		cfg.Stripe = 3
		cfg.StallTicks = 5
	})

	ch := receiver.Download(obj, providers)
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := receiver.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch after recovering from the striped cheater")
	}
	if mn.cluster.Flagged(1) == 0 {
		t.Fatal("mediator tier never flagged the corrupt origin")
	}
	st := receiver.Stats()
	if st.MedRejects == 0 {
		t.Fatal("receiver recorded no audit rejection")
	}
	if st.StripesReassigned == 0 {
		t.Fatal("the cheater's stripe was never reassigned")
	}
}

// TestStripedStallRecovery: an origin departs mid-stripe. The receiver's
// per-stripe stall timer takes the dead lane back within the stall timeout
// and the surviving origin re-escrows and completes it, without the
// surviving stripe being disturbed.
func TestStripedStallRecovery(t *testing.T) {
	const size = 16 * 1024
	mn := newMedNet(t, 2, size)
	obj := catalog.ObjectID(8)
	data := payload(obj, size)
	casualty := mn.spawnMediated(1, func(cfg *Config) {
		cfg.BlockDelay = 5 * time.Millisecond // stretch the stripe so the departure lands mid-transfer
	})
	casualty.AddObject(obj, data)
	survivor := mn.spawnMediated(2, nil)
	survivor.AddObject(obj, data)
	receiver := mn.spawnMediated(9, func(cfg *Config) {
		cfg.Stripe = 2
		cfg.StallTicks = 5
	})

	ch := receiver.Download(obj, map[core.PeerID]string{1: casualty.Addr(), 2: survivor.Addr()})
	time.Sleep(10 * time.Millisecond) // let the stripes get going
	casualty.Close()
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatalf("download did not recover from the mid-stripe departure: %v", err)
	}
	if got := receiver.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch after stall recovery")
	}
	if st := receiver.Stats(); st.StripesReassigned == 0 {
		t.Fatal("the departed origin's stripe was never reassigned")
	}
}

// TestMediatedRidesThroughShardRestart restarts every mediator shard while
// transfers are in flight: escrows are lost, audits come back keyless, and
// the node-side client plus session retry must still converge on a clean
// download without anyone being flagged.
func TestMediatedRidesThroughShardRestart(t *testing.T) {
	const size = 16 * 1024
	mn := newMedNet(t, 2, size)
	server := mn.spawnMediated(1, func(cfg *Config) {
		cfg.BlockDelay = 2 * time.Millisecond // stretch the transfer window
	})
	clientN := mn.spawnMediated(2, func(cfg *Config) { cfg.StallTicks = 8 })
	obj := catalog.ObjectID(9)
	data := payload(obj, size)
	server.AddObject(obj, data)

	ch := clientN.Download(obj, map[core.PeerID]string{1: server.Addr()})
	time.Sleep(10 * time.Millisecond) // let the transfer get going
	for i := 0; i < mn.cluster.Shards(); i++ {
		if err := mn.cluster.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatalf("download did not survive the shard restarts: %v", err)
	}
	if got := clientN.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch after shard restarts")
	}
	if mn.cluster.Flagged(1) != 0 {
		t.Fatal("honest sender was flagged after escrow loss")
	}
}

// TestEscrowKeyedPerSession: an origin's next upload session to the same
// receiver for the same object deposits its key while the receiver's audit
// of the previous session's stripe is still pending at the tier. Each
// session must escrow under its own exchange id, so the pending audit still
// opens under the key its stripe was sealed with and the honest origin is
// not flagged.
func TestEscrowKeyedPerSession(t *testing.T) {
	const size = 4 * 1024
	mn := newMedNet(t, 1, size)
	origin := mn.spawnMediated(1, nil)
	receiver := mn.spawnMediated(2, nil)
	obj := catalog.ObjectID(5)
	data := payload(obj, size)
	blocks := splitBlocks(data, 1024)

	// escrow opens one upload session on the origin, through its own
	// deposit path, and waits until the tier acknowledged the key.
	escrow := func() *upload {
		key, session, ok := medSealKey()
		if !ok {
			t.Fatal("no entropy for a session key")
		}
		u := &upload{to: receiver.ID(), object: obj, total: uint32(len(blocks)), mediated: true, sealKey: key, session: session}
		origin.call(func() {
			origin.uploads[upKey{to: u.to, object: obj}] = u
			origin.startEscrow(u)
		})
		deadline := time.Now().Add(testTimeout)
		for escrowed := false; !escrowed; origin.call(func() { escrowed = u.escrowed }) {
			if time.Now().After(deadline) {
				t.Fatal("deposit never acknowledged")
			}
			time.Sleep(time.Millisecond)
		}
		return u
	}

	first := escrow()
	// The receiver holds the first session's whole stripe, sealed under
	// that session's key.
	sealed := make([][]byte, len(blocks))
	for i, b := range blocks {
		var err error
		if sealed[i], err = mediator.Seal(first.sealKey, origin.ID(), receiver.ID(), obj, uint32(i), b); err != nil {
			t.Fatal(err)
		}
	}
	// The origin's next session to the same receiver escrows before the
	// first stripe's audit is judged.
	escrow()

	done := make(chan error, 1)
	receiver.call(func() {
		dl := &download{
			object:    obj,
			blocks:    sealed,
			digests:   trueDigests(data, 1024),
			have:      len(blocks),
			total:     len(blocks),
			providers: map[core.PeerID]string{origin.ID(): origin.Addr()},
			waiters:   []chan error{done},
			senders:   map[core.PeerID]bool{origin.ID(): true},
			stripes:   []*stripeState{{origin: origin.ID(), session: first.session, have: len(blocks)}},
		}
		receiver.downloads[obj] = dl
		receiver.startStripeVerify(dl, 0)
	})
	if err := WaitFor(done, testTimeout); err != nil {
		t.Fatalf("audit of the first session failed: %v", err)
	}
	if got := receiver.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch after the first session's audit")
	}
	if mn.cluster.Flagged(origin.ID()) != 0 {
		t.Fatal("honest origin was flagged: its second session re-escrowed over the first session's key")
	}
	if st := receiver.Stats(); st.MedRejects != 0 {
		t.Fatalf("honest origin's audit produced %d rejects", st.MedRejects)
	}
}
