package transport

import (
	"fmt"
	"sync"
	"time"

	"barter/internal/protocol"
)

// Mem is an in-process transport: listeners are registered in a shared
// registry by name, and connections are paired message channels. It gives
// tests and examples real concurrency with zero syscalls.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	nextAuto  int
	latency   time.Duration
}

var _ Transport = (*Mem)(nil)

// NewMem returns an empty in-memory network.
func NewMem() *Mem {
	return &Mem{listeners: make(map[string]*memListener)}
}

// NewMemLatency returns an in-memory network that delays every message by
// the given one-way latency. Delivery is timestamped at send, so messages
// in flight overlap: two frames sent back-to-back arrive one latency after
// their sends, not two. That makes round-trip-bound behavior (RPC
// pipelining, stall timers) measurable without a real network.
func NewMemLatency(oneWay time.Duration) *Mem {
	m := NewMem()
	m.latency = oneWay
	return m
}

// Listen implements Transport.
func (m *Mem) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		m.nextAuto++
		addr = fmt.Sprintf("mem://auto-%d", m.nextAuto)
	}
	if _, taken := m.listeners[addr]; taken {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &memListener{
		net:     m,
		addr:    addr,
		backlog: make(chan *memConn, 16),
		done:    make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (m *Mem) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := pipe(addr, "mem://dialer", m.latency)
	select {
	case l.backlog <- server:
	case <-l.done:
		return nil, ErrClosed
	}
	// A Close racing the enqueue may already have drained the backlog:
	// never hand out a connection that nobody will accept.
	select {
	case <-l.done:
		_ = client.Close()
		return nil, ErrClosed
	default:
		return client, nil
	}
}

func (m *Mem) drop(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

type memListener struct {
	net     *Mem
	addr    string
	backlog chan *memConn
	done    chan struct{}
	once    sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.drop(l.addr)
		// Dials still queued will never be accepted; reset them so their
		// dialers see the connection fail instead of waiting forever.
		for {
			select {
			case c := <-l.backlog:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// memMsg is one in-flight message; due is when the simulated network
// delivers it (zero when the network adds no latency).
type memMsg struct {
	msg protocol.Message
	due time.Time
}

// memConn is one endpoint of a paired in-memory connection.
type memConn struct {
	remote  string
	out     chan<- memMsg
	in      <-chan memMsg
	latency time.Duration
	// closed is shared between both endpoints: closing either side tears
	// down the pair, like a TCP reset.
	closed chan struct{}
	once   *sync.Once
}

// pipe builds a connected pair; a's sends arrive at b's Recv and vice versa.
func pipe(aRemote, bRemote string, latency time.Duration) (a, b *memConn) {
	ab := make(chan memMsg, 64)
	ba := make(chan memMsg, 64)
	closed := make(chan struct{})
	once := &sync.Once{}
	a = &memConn{remote: aRemote, out: ab, in: ba, latency: latency, closed: closed, once: once}
	b = &memConn{remote: bRemote, out: ba, in: ab, latency: latency, closed: closed, once: once}
	return a, b
}

func (c *memConn) Send(msg protocol.Message) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	m := memMsg{msg: msg}
	if c.latency > 0 {
		m.due = time.Now().Add(c.latency)
	}
	select {
	case c.out <- m:
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

// deliver holds a received message until its delivery time. Messages queued
// behind it carry their own send-stamped deadlines, so a burst pays the
// latency once, not per frame.
func (c *memConn) deliver(m memMsg) protocol.Message {
	if !m.due.IsZero() {
		if d := time.Until(m.due); d > 0 {
			time.Sleep(d)
		}
	}
	return m.msg
}

func (c *memConn) Recv() (protocol.Message, error) {
	select {
	case m := <-c.in:
		return c.deliver(m), nil
	case <-c.closed:
		// Drain anything already queued before reporting closure, so an
		// orderly shutdown does not drop in-flight messages.
		select {
		case m := <-c.in:
			return c.deliver(m), nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *memConn) RemoteAddr() string { return c.remote }
