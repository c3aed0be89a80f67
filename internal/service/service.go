package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/recovery"
	"tiledwall/internal/splitter"
)

// Config describes a 1-k-(m,n) wall. K = 0 selects the one-level 1-(m,n)
// system in which the root itself splits at macroblock level.
type Config struct {
	// K is the number of second-level splitters (0 = combined root+splitter).
	K int
	// M, N is the decoder grid; Overlap the projector blend band in pixels.
	M, N, Overlap int
	// MaxFCode bounds the stream's motion vector range and sizes decoder
	// halos for the whole wall lifetime (default 3, ±32 px, the encoder
	// default); every session's motion vectors must fit it.
	MaxFCode int

	// DynamicBalance makes the root assign pictures to the least-loaded
	// splitter instead of round-robin (the paper's §6 future work).
	DynamicBalance bool
	// SplitWorkers is the slice-parallel fan-out inside every macroblock
	// splitter (second-level and one-level combined): each picture's slices
	// are parsed concurrently by this many goroutines, shrinking the paper's
	// ts term on multicore hosts. 0 selects GOMAXPROCS, 1 the serial path;
	// sub-pictures are byte-identical for every value.
	SplitWorkers int
	// UnbatchedExchange disables per-peer batching of MEI block messages
	// (ablation; see pdec.Config.UnbatchedSends).
	UnbatchedExchange bool
	// Pooled recycles message slabs, pixel buffers and per-picture decode
	// state across the pipeline, eliminating steady-state heap allocation on
	// the decode hot path; pixels are bit-identical either way. Composes
	// with Recovery via refcounted slab ownership (DESIGN.md §9).
	Pooled bool
	// CollectFrames assembles full output frames for verification (adds
	// memory traffic outside the measured path).
	CollectFrames bool

	// Fabric configures the in-process fabric (throttling, drop injection)
	// and the stall watchdog of either built transport.
	Fabric cluster.Config
	// Transport names the transport New builds and Close shuts down: "" or
	// "fabric" for the in-process fabric, "tcp" for the socket transport
	// over loopback (every node still lives in this process, but all
	// traffic crosses real TCP connections through a hub — the
	// single-process form of the multi-process wall). A recovery-enabled TCP
	// wall gets recoverable (redialing) links.
	Transport string
	// Wiring, when set, supplies an external transport instead of a named
	// one (e.g. a cluster.TCPTransport spanning processes). It must have
	// exactly NumNodes() nodes and is not shut down by Wall.Close.
	Wiring cluster.Transport
	// LocalNodes restricts which node loops this process runs (nil = all).
	// A multi-process wall gives each process the same grid and transport
	// topology but a disjoint LocalNodes subset; only the process hosting
	// node 0 (the root) can open sessions, the others Wait.
	LocalNodes []int

	// OnTileFrame, when set, receives every decoded tile frame hosted by
	// this process (display order per tile per session) — the display-server
	// hook, independent of CollectFrames, and the only per-tile output a
	// partially subscribed session produces.
	OnTileFrame func(session, displayIdx, tile int, buf *mpeg2.PixelBuf)

	// MaxSessions bounds concurrently open sessions (default 8); Open fails
	// with a *TooManySessionsError (wrapping ErrTooManySessions) beyond it.
	MaxSessions int
	// MaxInFlightPictures bounds pictures per session between Feed and the
	// splitter's receipt ack; Feed blocks when the bound is reached
	// (default 8).
	MaxInFlightPictures int

	// Recovery, when Enabled, makes the resident wall fault-tolerant: the
	// local splitter and decoder loops run supervised (heartbeat leases,
	// respawn with in-band session re-join), the root retains and replays
	// unacked pictures, credit waits are deadline-bounded, decoders conceal
	// lost pictures, and a broken session fails alone with a typed error.
	// Composes with Pooled: retained payloads carry slab references, so
	// replay and recycling share buffers safely (DESIGN.md §9).
	Recovery recovery.Config
	// Chaos injects crashes for tests and soaks; each kill fires on the
	// named node's first incarnation only.
	Chaos recovery.ChaosPlan
}

func (c *Config) defaults() {
	if c.MaxFCode == 0 {
		c.MaxFCode = 3
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxInFlightPictures <= 0 {
		c.MaxInFlightPictures = 8
	}
}

// NumNodes returns the node count the wall's transport must provide:
// root, k splitters, m×n decoders.
func (c Config) NumNodes() int { return 1 + c.K + c.M*c.N }

var (
	// ErrTooManySessions is returned by Open when MaxSessions sessions are
	// already active.
	ErrTooManySessions = errors.New("service: too many open sessions")
	// ErrWallClosed is returned by Open after Close has begun.
	ErrWallClosed = errors.New("service: wall closed")
	// ErrSessionClosed is returned by Feed/Close on an already-closed session.
	ErrSessionClosed = errors.New("service: session closed")
	// ErrNoLocalRoot is returned by Open on a wall whose LocalNodes subset
	// does not include the root; sessions are fed from the root process.
	ErrNoLocalRoot = errors.New("service: root node is not local to this process")
)

// workKind tags items on the feed→root work queue.
type workKind uint8

const (
	workOpen workKind = iota
	workPicture
	workFinal
	workShutdown
	// workSubscribe carries a subscription/trick-play change (payload is the
	// FlagSubscribe control encoding). The root holds it until the next I
	// picture it ships for the session, then broadcasts it to the splitters.
	workSubscribe
)

type workItem struct {
	sess    *Session
	kind    workKind
	payload []byte // header prefix (open) or picture unit (picture)
	index   int    // per-session picture index, or the total for a final
}

// Wall is a resident decoding pipeline: transport, root, splitters and tile
// decoders built once by New and alive until Close.
type Wall struct {
	cfg   Config
	tr    cluster.Transport
	ownTr bool

	splitterIDs []int
	decoderIDs  []int
	hasRoot     bool

	work chan workItem
	quit chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex
	idle       *sync.Cond
	sessions   map[int]*Session
	nextID     int
	active     int
	closed     bool
	closeOnce  sync.Once
	closeErr   error
	avgSession time.Duration // EWMA of completed session durations (RetryAfter)

	// rv is the recovery state; nil unless Config.Recovery.Enabled.
	rv *wallRecovery

	// Load-snapshot counters, maintained with atomics so Load never touches
	// w.mu and the feed hot path never touches a lock: loadAct mirrors
	// active, loadPics counts feed tokens held (pictures between Feed and
	// the splitter's receipt ack), loadBytes counts picture bytes queued
	// between Feed and the root's dequeue.
	loadAct   atomic.Int64
	loadPics  atomic.Int64
	loadBytes atomic.Int64

	plays atomic.Int64 // Play session name counter
}

// Load is a cheap point-in-time load snapshot of a wall, read by fleet
// routers on every admission decision. It is maintained with atomic counters
// off to the side of the session machinery: taking it contends with neither
// the open/close lock nor the feed hot path, and allocates nothing.
type Load struct {
	// ActiveSessions and MaxSessions are the admission occupancy.
	ActiveSessions int
	MaxSessions    int
	// InFlightPictures counts pictures between Session.Feed and the
	// splitter's receipt ack (the feed tokens currently held), summed over
	// all sessions — the backlog the pipeline is chewing on.
	InFlightPictures int
	// QueuedBytes counts picture bytes accepted by Feed but not yet
	// dequeued by the root — the feed queue depth in bytes.
	QueuedBytes int64
}

// Load snapshots the wall's current load without taking the open/close lock.
// The three counters are read independently, so a snapshot taken mid-update
// may be momentarily inconsistent between fields; each field is exact.
func (w *Wall) Load() Load {
	return Load{
		ActiveSessions:   int(w.loadAct.Load()),
		MaxSessions:      w.cfg.MaxSessions,
		InFlightPictures: int(w.loadPics.Load()),
		QueuedBytes:      w.loadBytes.Load(),
	}
}

// New builds the wall and starts every node server. The caller must Close it.
func New(cfg Config) (*Wall, error) {
	cfg.defaults()
	if cfg.M < 1 || cfg.N < 1 || cfg.K < 0 {
		return nil, fmt.Errorf("service: invalid grid 1-%d-(%d,%d)", cfg.K, cfg.M, cfg.N)
	}
	switch {
	case cfg.Transport != "" && cfg.Wiring != nil:
		return nil, fmt.Errorf("service: transport %q and an injected transport are exclusive", cfg.Transport)
	case cfg.Transport == "tcp" && cfg.LocalNodes != nil:
		return nil, fmt.Errorf("service: the loopback tcp transport hosts every node; LocalNodes needs an injected transport")
	case cfg.Transport != "" && cfg.Transport != "fabric" && cfg.Transport != "tcp":
		return nil, fmt.Errorf("service: unknown transport %q (want \"fabric\" or \"tcp\")", cfg.Transport)
	case cfg.Wiring != nil && cfg.Wiring.NumNodes() != cfg.NumNodes():
		return nil, fmt.Errorf("service: transport has %d nodes, grid 1-%d-(%d,%d) needs %d",
			cfg.Wiring.NumNodes(), cfg.K, cfg.M, cfg.N, cfg.NumNodes())
	}
	local := func(int) bool { return true }
	if cfg.LocalNodes != nil {
		set := map[int]bool{}
		for _, id := range cfg.LocalNodes {
			if id < 0 || id >= cfg.NumNodes() {
				return nil, fmt.Errorf("service: local node %d out of range [0,%d)", id, cfg.NumNodes())
			}
			set[id] = true
		}
		local = func(id int) bool { return set[id] }
	}
	nTiles := cfg.M * cfg.N
	w := &Wall{
		cfg:      cfg,
		hasRoot:  local(0),
		work:     make(chan workItem, cfg.MaxSessions*cfg.MaxInFlightPictures),
		quit:     make(chan struct{}),
		sessions: map[int]*Session{},
	}
	w.idle = sync.NewCond(&w.mu)
	for i := 0; i < cfg.K; i++ {
		w.splitterIDs = append(w.splitterIDs, 1+i)
	}
	for t := 0; t < nTiles; t++ {
		w.decoderIDs = append(w.decoderIDs, 1+cfg.K+t)
	}
	if cfg.Recovery.Enabled {
		w.rv = newWallRecovery(cfg.Recovery, cfg.Chaos, cfg.K, nTiles, cfg.Pooled)
	}
	switch {
	case cfg.Wiring != nil:
		w.tr = cfg.Wiring
	case cfg.Transport == "tcp":
		tr, err := w.listenLoopback()
		if err != nil {
			if w.rv != nil {
				w.rv.sup.Close()
			}
			return nil, err
		}
		w.tr, w.ownTr = tr, true
	default:
		w.tr, w.ownTr = cluster.New(cfg.NumNodes(), cfg.Fabric), true
	}
	tr := w.tr

	// Wake a Close blocked on active sessions if the transport aborts.
	go func() {
		select {
		case <-tr.Done():
			w.mu.Lock()
			w.idle.Broadcast()
			w.mu.Unlock()
		case <-w.quit:
		}
	}()

	for i := 0; i < cfg.K; i++ {
		if !local(w.splitterIDs[i]) {
			continue
		}
		i := i
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if w.rv != nil {
				w.runSplitterSupervised(i)
				return
			}
			err := splitter.ServeSecond(tr.Port(w.splitterIDs[i]), splitter.ServeConfig{
				Index:        i,
				M:            cfg.M,
				N:            cfg.N,
				Overlap:      cfg.Overlap,
				DecoderNodes: w.decoderIDs,
				RootNode:     0,
				Pooled:       cfg.Pooled,
				SplitWorkers: cfg.SplitWorkers,
				OnResult:     w.onSecondResult,
			})
			if err != nil {
				tr.Abort(err)
			}
		}()
	}
	for t := 0; t < nTiles; t++ {
		if !local(w.decoderIDs[t]) {
			continue
		}
		t := t
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if w.rv != nil {
				w.runDecoderSupervised(t)
				return
			}
			if err := pdec.Serve(tr.Port(w.decoderIDs[t]), w.decoderServeCfg(t)); err != nil {
				tr.Abort(err)
			}
		}()
	}
	if w.hasRoot {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if err := w.runRoot(); err != nil {
				tr.Abort(err)
			}
		}()
	}
	return w, nil
}

// listenLoopback builds the single-process TCP transport: every node local,
// all traffic over loopback sockets through the hub. Under recovery the
// links redial after a loss and report their state to the wall (w.rv is set
// before any link goroutine starts).
func (w *Wall) listenLoopback() (*cluster.TCPTransport, error) {
	ids := make([]int, w.cfg.NumNodes())
	for i := range ids {
		ids[i] = i
	}
	tcfg := cluster.TCPConfig{
		NumNodes:     len(ids),
		LocalNodes:   ids,
		Grid:         cluster.Grid{K: w.cfg.K, M: w.cfg.M, N: w.cfg.N, Overlap: w.cfg.Overlap},
		StallTimeout: w.cfg.Fabric.StallTimeout,
	}
	if w.rv != nil {
		tcfg.Recoverable = true
		tcfg.OnLinkState = w.NoteLink
	}
	return cluster.ListenTCP("127.0.0.1:0", tcfg)
}

// decoderServeCfg builds one local tile decoder's serve configuration;
// supervised incarnations add their Recovery wiring on top.
func (w *Wall) decoderServeCfg(t int) pdec.ServeConfig {
	scfg := pdec.ServeConfig{
		Tile:           t,
		M:              w.cfg.M,
		N:              w.cfg.N,
		Overlap:        w.cfg.Overlap,
		MaxFCode:       w.cfg.MaxFCode,
		TileNode:       func(tile int) int { return w.decoderIDs[tile] },
		RootNode:       0,
		UnbatchedSends: w.cfg.UnbatchedExchange,
		Pooled:         w.cfg.Pooled,
		OnResult:       w.onDecoderResult,
	}
	if w.cfg.CollectFrames || w.cfg.OnTileFrame != nil {
		scfg.OnFrame = w.onFrame
	}
	// Recovery always observes emissions: the registry's per-tile frontier
	// is what a respawned decoder resumes from. It needs no pixels, so a
	// wall nobody watches pays no per-tile frame copy for it.
	if w.rv != nil {
		scfg.OnEmit = w.rv.noteFrame
	}
	return scfg
}

// Wait blocks until this process's node loops exit — a clean shutdown
// broadcast from the (possibly remote) root, or a transport abort, whose
// cause is returned. Worker processes of a multi-process wall call Wait;
// the root process drives sessions and calls Close.
func (w *Wall) Wait() error {
	w.wg.Wait()
	return w.tr.AbortCause()
}

// Transport exposes the wall's transport (stats, per-pair and per-session
// byte counters).
func (w *Wall) Transport() cluster.Transport { return w.tr }

// Open admits a new session. The name is informational (results, errors).
func (w *Wall) Open(name string) (*Session, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.tr.AbortCause(); err != nil {
		return nil, err
	}
	if !w.hasRoot {
		return nil, ErrNoLocalRoot
	}
	if w.closed {
		return nil, ErrWallClosed
	}
	if w.active >= w.cfg.MaxSessions {
		return nil, &TooManySessionsError{
			Active:     w.active,
			Max:        w.cfg.MaxSessions,
			RetryAfter: w.retryAfterLocked(),
		}
	}
	w.nextID++
	s := &Session{
		w:         w,
		id:        w.nextID,
		name:      name,
		openedAt:  time.Now(),
		scanner:   newUnitScanner(),
		tokens:    make(chan struct{}, w.cfg.MaxInFlightPictures),
		drained:   make(chan struct{}),
		failedCh:  make(chan struct{}),
		splitters: make([]*splitter.SecondResult, maxInt(1, w.cfg.K)),
		decoders:  make([]*pdec.Result, w.cfg.M*w.cfg.N),
	}
	for i := 0; i < cap(s.tokens); i++ {
		s.tokens <- struct{}{}
	}
	w.active++
	w.loadAct.Store(int64(w.active))
	w.sessions[s.id] = s
	return s, nil
}

// retryAfterLocked estimates how long a rejected Open should back off: the
// wall's average session duration minus the progress of the oldest in-flight
// session — an optimistic guess at when the next admission slot drains.
// Callers hold w.mu.
func (w *Wall) retryAfterLocked() time.Duration {
	const floor = 10 * time.Millisecond
	avg := w.avgSession
	if avg <= 0 {
		return 100 * time.Millisecond // no history yet
	}
	var oldest time.Duration
	for _, s := range w.sessions {
		if el := time.Since(s.openedAt); el > oldest {
			oldest = el
		}
	}
	if hint := avg - oldest; hint > floor {
		return hint
	}
	return floor
}

// Close drains the wall: it waits for every open session to close, shuts the
// node servers down, and releases the transport New built (an injected
// Wiring stays up). Returns the abort cause if the pipeline failed.
func (w *Wall) Close() error {
	w.closeOnce.Do(func() {
		w.mu.Lock()
		w.closed = true
		for w.active > 0 && w.tr.AbortCause() == nil {
			w.idle.Wait()
		}
		w.mu.Unlock()
		if w.hasRoot && w.tr.AbortCause() == nil {
			select {
			case w.work <- workItem{kind: workShutdown}:
			case <-w.tr.Done():
			}
		}
		w.wg.Wait()
		close(w.quit)
		if w.rv != nil {
			w.rv.sup.Close()
		}
		w.closeErr = w.tr.AbortCause()
		if w.ownTr {
			w.tr.Shutdown()
		}
	})
	return w.closeErr
}

// sessionDone releases a session's admission slot and folds its duration
// into the EWMA behind Open's RetryAfter hint.
func (w *Wall) sessionDone(s *Session) {
	w.mu.Lock()
	delete(w.sessions, s.id)
	w.active--
	w.loadAct.Store(int64(w.active))
	dur := time.Since(s.openedAt)
	if w.avgSession == 0 {
		w.avgSession = dur
	} else {
		w.avgSession = (3*w.avgSession + dur) / 4
	}
	w.idle.Broadcast()
	w.mu.Unlock()
}

func (w *Wall) onSecondResult(session, idx int, res *splitter.SecondResult) {
	w.mu.Lock()
	if s := w.sessions[session]; s != nil {
		s.splitters[idx] = res
	}
	w.mu.Unlock()
}

func (w *Wall) onFrame(session, displayIdx, tile int, buf *mpeg2.PixelBuf) {
	if w.cfg.OnTileFrame != nil {
		w.cfg.OnTileFrame(session, displayIdx, tile, buf)
	}
	if !w.cfg.CollectFrames {
		return
	}
	w.mu.Lock()
	s := w.sessions[session]
	w.mu.Unlock()
	if s != nil && s.collector != nil {
		s.collector.add(tile, buf)
	}
}

func (w *Wall) onDecoderResult(session, tile int, res *pdec.Result) {
	w.mu.Lock()
	if s := w.sessions[session]; s != nil {
		s.decoders[tile] = res
	}
	w.mu.Unlock()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
