// Package cluster provides the in-process message-passing fabric standing in
// for the paper's Myrinet/GM user-level network (DESIGN.md §2). It preserves
// the properties the algorithms depend on:
//
//   - addressed, reliable messages with per-sender FIFO order but NO global
//     ordering across senders (GM's semantics — the reason the paper needs
//     the ANID ack-redirect protocol);
//   - zero-copy transfer (payload slices are handed over, never copied);
//   - receive into posted buffers, modelled by per-kind receive queues with
//     bounded depth;
//   - per-link byte accounting for the bandwidth experiments (Fig. 9) and
//     optional bandwidth/latency throttling.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MsgKind tags a message with its protocol role.
type MsgKind uint8

const (
	// MsgPicture is a picture unit from the root splitter to a second-level
	// splitter (paper Fig. 5: root -> splitter).
	MsgPicture MsgKind = iota
	// MsgSubPicture is an SP+MEI bundle from a splitter to a decoder.
	MsgSubPicture
	// MsgBlocks carries exchanged reference macroblocks between decoders.
	MsgBlocks
	// MsgAck is the credit/go-ahead message of the flow-control protocol.
	MsgAck
	// MsgHalo carries band-edge reference strips between neighbours in the
	// slice-level baseline pipeline.
	MsgHalo
	// MsgPixels carries decoded pixels redistributed to display nodes in
	// the coarse-granularity baseline pipelines (Table 1).
	MsgPixels
	// MsgXport carries transport-level control traffic (cumulative acks and
	// NACKs) for the recovery layer's retransmission protocol. It is never
	// seen by the pipeline protocols.
	MsgXport
	numKinds
)

func (k MsgKind) String() string {
	switch k {
	case MsgPicture:
		return "picture"
	case MsgSubPicture:
		return "subpicture"
	case MsgBlocks:
		return "blocks"
	case MsgAck:
		return "ack"
	case MsgHalo:
		return "halo"
	case MsgPixels:
		return "pixels"
	case MsgXport:
		return "xport"
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// messageHeaderBytes approximates the per-message wire overhead counted in
// the bandwidth statistics (GM header + our tags).
const messageHeaderBytes = 16

// Message flag bits (recovery layer and resident-service control plane).
const (
	// FlagRetransmit marks a message re-sent by the retransmission layer;
	// receivers deduplicate by XSeq, so the flag is informational.
	FlagRetransmit uint8 = 1 << iota
	// FlagReplay marks a sub-picture or picture replayed from a retained
	// window after a node restart. Replays must not generate protocol acks
	// (the original delivery already did, or the credit was written off).
	FlagReplay
	// FlagSessionOpen announces a new stream to a resident node; the payload
	// is the stream's header prefix (sequence header + extension). Control
	// messages are never acked and consume no flow-control credit.
	FlagSessionOpen
	// FlagSessionFinal is the end-of-stream control message of a session
	// (the resident equivalent of the batch end marker). Like every control
	// message it must not be acked: in a long-lived wall the splitters keep
	// running, and a stray ack would inflate the next picture's go-ahead
	// count.
	FlagSessionFinal
	// FlagShutdown tells a resident node loop to exit cleanly (graceful wall
	// teardown, after every session has drained).
	FlagShutdown
	// FlagFirstPicture marks the globally first data picture a resident wall
	// ships. The Table 3 exemption — the very first picture needs no decoder
	// go-ahead — belongs to the wall's lifetime, not to any one session, so
	// the root pins it to a flag instead of `Seq == 0`.
	FlagFirstPicture
	// FlagSubscribe is the subscription/trick-play control message the root
	// broadcasts to its splitters when a session's ROI or trick mode changes
	// (DESIGN.md §15). The payload is one trick-mode byte followed by the
	// wall.TileSet wire form (empty = full subscription). Like every control
	// message it is never acked and consumes no flow-control credit; per-
	// sender FIFO delivery makes every splitter apply it at the same picture
	// boundary.
	FlagSubscribe
)

// DrainAckSeq is the Seq sentinel of the drain acknowledgement a resident
// decoder sends the root when a session completes on its tile. It keeps
// drain acks distinguishable from go-ahead/credit acks (picture index >= 0)
// in the root's single ack stream.
const DrainAckSeq = -2

// SessionFailSeq is the Seq sentinel of the failure notice a recovery-enabled
// resident splitter sends the root when one session's stream is undecodable
// (corrupt unit, geometry mismatch). The payload carries the cause text. The
// root fails that session alone; the splitter keeps serving the others.
const SessionFailSeq = -3

// Message is one fabric message.
type Message struct {
	From, To int
	Kind     MsgKind
	// Seq carries a protocol sequence number (picture index for data
	// messages, acked index for acks).
	Seq int
	// Tag carries protocol-specific routing info (NSID for pictures, ANID
	// for sub-pictures, reference selector for block messages).
	Tag int
	// Session identifies the resident-service stream this message belongs to
	// (0 = the single implicit stream of a batch run). Long-lived nodes key
	// their per-stream state off it, and the fabric accounts bytes per
	// session under it.
	Session int
	// XSeq is the per-link transport sequence number assigned by the
	// recovery layer's reliable endpoint (0 when reliability is off).
	XSeq int64
	// Flags carries FlagRetransmit/FlagReplay.
	Flags uint8
	// Payload is handed over without copying.
	Payload []byte
}

// Net is the messaging surface the pipeline nodes program against. It is
// satisfied by *Node directly (raw GM-like fabric, PR 1 behaviour) and by
// the recovery layer's reliable endpoint, which adds sequence tracking,
// NACK/retransmission and dedup on top of the same methods.
type Net interface {
	ID() int
	Send(to int, msg *Message)
	Recv(kind MsgKind) *Message
	// RecvTimeout waits up to d for a message. msg != nil means delivered;
	// msg == nil with timedOut=true means the deadline passed; msg == nil
	// with timedOut=false means the fabric aborted.
	RecvTimeout(kind MsgKind, d time.Duration) (msg *Message, timedOut bool)
	TryRecv(kind MsgKind) (*Message, bool)
	Done() <-chan struct{}
}

func (m *Message) wireBytes() int64 { return int64(len(m.Payload) + messageHeaderBytes) }

// LinkStats counts traffic of one node.
type LinkStats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
}

// Config tunes the fabric.
type Config struct {
	// BandwidthBps throttles each sender's links (bytes per second);
	// 0 disables throttling. The paper's Myrinet delivered on the order of
	// 100 MB/s per link.
	BandwidthBps float64
	// Latency is added per message when throttling is enabled.
	Latency time.Duration
	// QueueDepth bounds each node's receive queue (posted buffers per
	// sender-role); sends block when the receiver's queue for that kind is
	// full. Defaults to 64: deep enough that the paper's credit protocol,
	// not the transport, is what limits the pipeline.
	QueueDepth int

	// Drop, when non-nil, is consulted on every Send; returning true
	// silently discards the message before delivery or accounting. Fault
	// injection for protocol tests (GM itself is reliable, so the protocols
	// have no retransmit path — a dropped credit message stalls the
	// pipeline, which the StallTimeout watchdog must then catch). Drop is
	// called concurrently from every sending node and must be thread-safe.
	Drop func(m *Message) bool
	// StallTimeout, when positive, arms a watchdog that aborts the fabric
	// with ErrStalled if no message is sent or received for the given
	// duration. It turns a protocol deadlock into a clean, attributable
	// error instead of a hung pipeline. Callers that set it should also
	// call Fabric.Shutdown when the run completes.
	StallTimeout time.Duration
}

// ErrStalled is the abort cause recorded by the StallTimeout watchdog when
// fabric traffic dries up while nodes are still blocked.
var ErrStalled = errors.New("cluster: fabric stalled (no traffic within StallTimeout)")

// Fabric connects a fixed set of nodes.
type Fabric struct {
	cfg   Config
	nodes []*Node
	stats []LinkStats // indexed by node id; atomic access
	pair  []int64     // bytes sent per (from*n + to), atomic

	sessMu    sync.Mutex
	sessBytes map[int]int64 // bytes sent per session id (session != 0 only)

	done     chan struct{}
	abortErr error
	abort1   sync.Once

	activity int64 // bumped on every send/receive; watchdog food
	stop     chan struct{}
	stop1    sync.Once
}

// New creates a fabric with n nodes.
func New(n int, cfg Config) *Fabric {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	f := &Fabric{
		cfg:   cfg,
		nodes: make([]*Node, n),
		stats: make([]LinkStats, n),
		pair:  make([]int64, n*n),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
	for i := range f.nodes {
		node := &Node{id: i, fabric: f}
		for k := range node.queues {
			node.queues[k] = make(chan *Message, cfg.QueueDepth)
		}
		f.nodes[i] = node
	}
	if cfg.StallTimeout > 0 {
		go f.watchdog(cfg.StallTimeout)
	}
	return f
}

// watchdog aborts the fabric when a full timeout period passes with no
// traffic. One quiet period can be an artefact of tick phase, so it requires
// two consecutive quiet checks at half the timeout each.
func (f *Fabric) watchdog(timeout time.Duration) {
	tick := time.NewTicker(timeout / 2)
	defer tick.Stop()
	last := atomic.LoadInt64(&f.activity)
	quiet := 0
	for {
		select {
		case <-tick.C:
			now := atomic.LoadInt64(&f.activity)
			if now == last {
				quiet++
				if quiet >= 2 {
					f.Abort(ErrStalled)
					return
				}
			} else {
				quiet = 0
				last = now
			}
		case <-f.done:
			return
		case <-f.stop:
			return
		}
	}
}

// Shutdown stops the watchdog goroutine, if one is armed. It is safe to call
// multiple times and on fabrics without a watchdog; pipeline drivers call it
// when their run completes so an idle-but-finished fabric is not aborted.
func (f *Fabric) Shutdown() {
	f.stop1.Do(func() { close(f.stop) })
}

// Node returns node id.
func (f *Fabric) Node(id int) *Node { return f.nodes[id] }

// NumNodes returns the node count.
func (f *Fabric) NumNodes() int { return len(f.nodes) }

// Stats returns a snapshot of per-node traffic counters.
func (f *Fabric) Stats() []LinkStats {
	out := make([]LinkStats, len(f.stats))
	for i := range f.stats {
		out[i] = LinkStats{
			BytesSent: atomic.LoadInt64(&f.stats[i].BytesSent),
			BytesRecv: atomic.LoadInt64(&f.stats[i].BytesRecv),
			MsgsSent:  atomic.LoadInt64(&f.stats[i].MsgsSent),
			MsgsRecv:  atomic.LoadInt64(&f.stats[i].MsgsRecv),
		}
	}
	return out
}

// PairBytes returns bytes sent from node a to node b.
func (f *Fabric) PairBytes(a, b int) int64 {
	return atomic.LoadInt64(&f.pair[a*len(f.nodes)+b])
}

// addSessionBytes accounts wire bytes to a resident-service session. Batch
// traffic (session 0) skips the lock entirely, so the hot path of one-shot
// runs is unchanged.
func (f *Fabric) addSessionBytes(session int, n int64) {
	f.sessMu.Lock()
	if f.sessBytes == nil {
		f.sessBytes = map[int]int64{}
	}
	f.sessBytes[session] += n
	f.sessMu.Unlock()
}

// SessionBytes returns the wire bytes sent so far on behalf of one session
// (0 for unknown sessions and for batch traffic, which is not keyed).
func (f *Fabric) SessionBytes(session int) int64 {
	f.sessMu.Lock()
	defer f.sessMu.Unlock()
	return f.sessBytes[session]
}

// Node is one cluster endpoint. A node's receive methods must be called from
// a single goroutine (the node's process), matching one PC per role.
type Node struct {
	id     int
	fabric *Fabric
	queues [numKinds]chan *Message
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Send delivers msg to node `to`. It blocks only when the receiver's queue
// for this kind is full (transport backpressure; the protocols are designed
// so their own credit scheme keeps queues shallow).
func (n *Node) Send(to int, msg *Message) {
	f := n.fabric
	msg.From = n.id
	msg.To = to
	if f.cfg.Drop != nil && f.cfg.Drop(msg) {
		return // lost on the wire: no delivery, no accounting
	}
	atomic.AddInt64(&f.activity, 1)
	bytes := msg.wireBytes()
	if f.cfg.BandwidthBps > 0 {
		d := time.Duration(float64(bytes)/f.cfg.BandwidthBps*1e9) + f.cfg.Latency
		time.Sleep(d)
	}
	atomic.AddInt64(&f.stats[n.id].BytesSent, bytes)
	atomic.AddInt64(&f.stats[n.id].MsgsSent, 1)
	atomic.AddInt64(&f.stats[to].BytesRecv, bytes)
	atomic.AddInt64(&f.stats[to].MsgsRecv, 1)
	atomic.AddInt64(&f.pair[n.id*len(f.nodes)+to], bytes)
	if msg.Session != 0 {
		f.addSessionBytes(msg.Session, bytes)
	}
	select {
	case f.nodes[to].queues[msg.Kind] <- msg:
	case <-f.done:
	}
}

// Abort unblocks every pending Recv/Send with a nil result so node loops
// can unwind after a peer failed. The first recorded cause wins.
func (f *Fabric) Abort(cause error) {
	f.abort1.Do(func() {
		f.abortErr = cause
		close(f.done)
	})
}

// AbortCause returns the error passed to Abort, if any.
func (f *Fabric) AbortCause() error {
	select {
	case <-f.done:
		return f.abortErr
	default:
		return nil
	}
}

// Recv blocks until a message of the given kind arrives. It returns nil
// when the fabric has been aborted.
func (n *Node) Recv(kind MsgKind) *Message {
	select {
	case m := <-n.queues[kind]:
		atomic.AddInt64(&n.fabric.activity, 1)
		return m
	case <-n.fabric.done:
		return nil
	}
}

// Queue exposes the receive channel for one kind so a node process can
// select across kinds (e.g. a display goroutine multiplexing fabric traffic
// with local hand-offs). Combine with Done for abort handling.
func (n *Node) Queue(kind MsgKind) <-chan *Message { return n.queues[kind] }

// Done is closed when the fabric aborts.
func (n *Node) Done() <-chan struct{} { return n.fabric.done }

// TryRecv returns a message of the given kind if one is queued.
func (n *Node) TryRecv(kind MsgKind) (*Message, bool) {
	select {
	case m := <-n.queues[kind]:
		return m, true
	default:
		return nil, false
	}
}

// RecvTimeout waits up to d for a message of the given kind; see Net.
func (n *Node) RecvTimeout(kind MsgKind, d time.Duration) (*Message, bool) {
	// Fast path avoids a timer allocation when a message is already queued.
	if m, ok := n.TryRecv(kind); ok {
		atomic.AddInt64(&n.fabric.activity, 1)
		return m, false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case m := <-n.queues[kind]:
		atomic.AddInt64(&n.fabric.activity, 1)
		return m, false
	case <-t.C:
		return nil, true
	case <-n.fabric.done:
		return nil, false
	}
}
