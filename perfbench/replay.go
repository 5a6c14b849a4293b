package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"barter/internal/mediator"
	"barter/internal/protocol"
)

// replayFor is the minimum time each replay loop runs, so the per-message
// figures average over many passes of the captured sample.
const replayFor = 100 * time.Millisecond

// replay runs the traced phase's captured frames back through the codec
// (DecodeBuf, then AppendEncode) and their blocks through mediator.Seal and
// Open, giving protocol.* and mediator.seal/open figures on the real
// message mix and block sizes.
func replay(frames [][]byte) (map[string]float64, error) {
	if len(frames) == 0 {
		return nil, errors.New("replay: the traced phase captured no frames")
	}
	msgs := make([]protocol.Message, len(frames))
	var (
		scratch []byte
		rd      bytes.Reader
		m0, m1  runtime.MemStats
		n       int
		dec     time.Duration
	)
	runtime.ReadMemStats(&m0)
	for dec < replayFor {
		t0 := time.Now()
		for i, f := range frames {
			rd.Reset(f)
			msg, s, err := protocol.DecodeBuf(&rd, scratch)
			if err != nil {
				return nil, fmt.Errorf("replay: decode captured frame: %w", err)
			}
			scratch, msgs[i] = s, msg
		}
		dec += time.Since(t0)
		n += len(frames)
	}
	runtime.ReadMemStats(&m1)
	out := map[string]float64{
		"protocol.decode_ns_per_msg":     float64(dec.Nanoseconds()) / float64(n),
		"protocol.decode_allocs_per_msg": float64(m1.Mallocs-m0.Mallocs) / float64(n),
		"protocol.decode_bytes_per_msg":  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}

	var (
		buf []byte
		enc time.Duration
	)
	n = 0
	for enc < replayFor {
		t0 := time.Now()
		for _, msg := range msgs {
			b, err := protocol.AppendEncode(buf[:0], msg)
			if err != nil {
				return nil, fmt.Errorf("replay: encode: %w", err)
			}
			buf = b
		}
		enc += time.Since(t0)
		n += len(msgs)
	}
	out["protocol.encode_ns_per_msg"] = float64(enc.Nanoseconds()) / float64(n)

	var blocks []*protocol.Block
	for _, msg := range msgs {
		if b, ok := msg.(*protocol.Block); ok {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) == 0 {
		return out, nil
	}
	key := [16]byte{'p', 'e', 'r', 'f', 'b', 'e', 'n', 'c', 'h'}
	sealed := make([][]byte, len(blocks))
	var seal, open time.Duration
	n = 0
	for seal < replayFor {
		t0 := time.Now()
		for i, b := range blocks {
			s, err := mediator.Seal(key, b.Origin, b.Recipient, b.Object, b.Index, b.Payload)
			if err != nil {
				return nil, fmt.Errorf("replay: seal: %w", err)
			}
			sealed[i] = s
		}
		seal += time.Since(t0)
		t0 = time.Now()
		for i, b := range blocks {
			if _, _, _, err := mediator.Open(key, b.Object, b.Index, sealed[i]); err != nil {
				return nil, fmt.Errorf("replay: open: %w", err)
			}
		}
		open += time.Since(t0)
		n += len(blocks)
	}
	out["mediator.seal_ns_per_block"] = float64(seal.Nanoseconds()) / float64(n)
	out["mediator.open_ns_per_block"] = float64(open.Nanoseconds()) / float64(n)
	return out, nil
}
