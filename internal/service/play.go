package service

import (
	"fmt"
	"slices"
	"time"

	"tiledwall/internal/cluster"
)

// Result reports a one-shot Play: the session's own result plus what only
// the wall knows — its configuration, the transport's node counters and the
// wiring.
type Result struct {
	*SessionResult
	Config Config

	// NodeStats indexes transport traffic by node id (root, splitters,
	// decoders in wiring order): the transport's cumulative counters, equal
	// to the session's own traffic on a single-Play wall.
	NodeStats []cluster.LinkStats
	// RootNodeID, SplitterNodeIDs and DecoderNodeIDs give the wiring.
	RootNodeID      int
	SplitterNodeIDs []int
	DecoderNodeIDs  []int

	// StreamBytes is the input size, for equivalent-bit-rate reporting.
	StreamBytes int64

	// Warnings lists accepted-but-surprising configuration interactions.
	Warnings []string

	transport cluster.Transport
}

// PairBytes returns bytes sent from node a to node b on the wall's
// transport.
func (r *Result) PairBytes(a, b int) int64 { return r.transport.PairBytes(a, b) }

// warnings reports configuration interactions that are accepted but change
// behaviour, so they are explicit instead of silent.
func (c Config) warnings() []string {
	var warns []string
	if c.Transport == "tcp" {
		if c.Fabric.BandwidthBps > 0 || c.Fabric.Latency > 0 {
			warns = append(warns,
				"Fabric bandwidth/latency throttling is not applied by the TCP transport; loopback speed is what you measure")
		}
		if c.Fabric.Drop != nil {
			warns = append(warns,
				"Fabric.Drop is not applied by the TCP transport (TCP is reliable); use TCPTransport.InjectLinkFailure for fault tests")
		}
	}
	return warns
}

// Play decodes one complete stream as one session. Safe to call from
// concurrent goroutines, up to the wall's MaxSessions.
func (w *Wall) Play(stream []byte) (*Result, error) {
	start := time.Now()
	sess, err := w.Open(fmt.Sprintf("play-%d", w.plays.Add(1)))
	if err != nil {
		return nil, err
	}
	if err := sess.Feed(stream); err != nil {
		sess.Close()
		return nil, err
	}
	sres, err := sess.Close()
	if err != nil {
		return nil, err
	}
	// Elapsed covers open → drained, the one-shot run window.
	sres.Throughput.Elapsed = time.Since(start)
	// One run's total interventions: the session's own charges
	// (concealment, splitter-gate timeouts) plus the wall-level charges
	// (restarts, replays, root credit timeouts) accrued while it ran —
	// cumulative across sessions on a shared wall, exact for the single-Play
	// wall that Run builds.
	sres.Recovery = sres.Recovery.Plus(w.Recovery())
	return &Result{
		SessionResult:   sres,
		Config:          w.cfg,
		NodeStats:       w.tr.Stats(),
		SplitterNodeIDs: slices.Clone(w.splitterIDs),
		DecoderNodeIDs:  slices.Clone(w.decoderIDs),
		StreamBytes:     int64(len(stream)),
		Warnings:        w.cfg.warnings(),
		transport:       w.tr,
	}, nil
}

// Run executes the pipeline over a complete elementary stream: it builds a
// wall, plays the stream as its only session, and closes the wall. Every
// configuration — transports, pooling and recovery included — takes this
// one execution path.
func Run(stream []byte, cfg Config) (*Result, error) {
	w, err := New(cfg)
	if err != nil {
		return nil, err
	}
	res, perr := w.Play(stream)
	cerr := w.Close()
	if perr == nil {
		perr = cerr
	}
	return res, perr
}
