package pdec

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/wall"
)

// ServeConfig wires one resident tile-decoder node: a long-lived server that
// multiplexes any number of sessions, each an independent stream with its own
// sequence header, geometry and reference chain.
type ServeConfig struct {
	Tile          int
	M, N, Overlap int
	// MaxFCode sizes the halo windows of every session (HaloForFCode).
	MaxFCode int
	// TileNode maps a tile index to its fabric node id, RootNode is where
	// drain acks go when a session completes on this tile.
	TileNode func(tile int) int
	RootNode int

	UnbatchedSends bool
	Pooled         bool

	// OnFrame receives decoded tile frames in display order, per session
	// (nil when frames are not collected).
	OnFrame func(session, displayIdx, tile int, buf *mpeg2.PixelBuf)
	// OnEmit is told of every emission, per session, without a pixel copy
	// (nil when nobody tracks emissions).
	OnEmit func(session, displayIdx, tile int)
	// OnResult receives the session's decode result when it completes on
	// this tile, before the drain ack is sent to the root.
	OnResult func(session, tile int, res *Result)

	// Recovery, when non-nil, switches the server to the fault-masking
	// protocol: per-session decoders run in recovery mode (gap and tail
	// concealment instead of ordering aborts), leases are renewed per
	// message, chaos kills surface as recovery.ErrKilled for the supervisor,
	// and a respawned incarnation re-joins its sessions from Resume.
	Recovery *ServeRecovery
}

// ServeRecovery wires fault masking into one resident decoder server
// incarnation.
type ServeRecovery struct {
	Cfg   recovery.Config
	Lease *recovery.Lease
	Chaos recovery.ChaosPlan
	// Rec returns the recovery counters to charge for a session's
	// interventions (must not return nil).
	Rec func(session int) *metrics.Recovery
	// OnOpen reports every session open this server sees, so the service
	// registry can snapshot it for future respawns.
	OnOpen func(session int, header []byte)
	// NumSplitters is how many session-final markers a session needs before
	// its tail can be concealed: one per second-level splitter (or one from
	// the combined root when K=0).
	NumSplitters int
	// Resume lists the sessions a respawned incarnation must re-join.
	Resume []ResumeSession
}

// ResumeSession re-opens one session on a respawned node server. NextPic is
// the emission frontier the dead incarnation reached (one past the highest
// emitted decode index): pictures below it were already displayed and stay
// displayed; the reference chain restarts untrusted and conceals until an I
// picture re-anchors it. Holes lists the decode indices below NextPic the
// dead incarnation never emitted — its held anchor, lost with it — which the
// respawned incarnation conceal-emits once so no tile skips a frame.
type ResumeSession struct {
	ID      int
	Header  []byte
	NextPic int
	Holes   []int
}

// server holds the node-level state shared by every session on one tile.
type server struct {
	cfg  ServeConfig
	port cluster.Port
	// sessions maps a live session id to its decoder instance.
	sessions map[int]*Decoder
	// pending buckets MsgBlocks bundles that arrived for a session other
	// than the one currently draining its RECVs (a peer one global picture
	// ahead may already be in the next session).
	pending map[int][]*cluster.Message
}

// sessionNet is the cluster.Net a per-session Decoder runs on: it stamps the
// session id on every send and filters MsgBlocks receives down to this
// session, parking other sessions' bundles in the server's pending buckets.
type sessionNet struct {
	srv     *server
	session int
}

func (s *sessionNet) ID() int { return s.srv.port.ID() }

func (s *sessionNet) Send(to int, msg *cluster.Message) {
	msg.Session = s.session
	s.srv.port.Send(to, msg)
}

func (s *sessionNet) Recv(kind cluster.MsgKind) *cluster.Message {
	if kind != cluster.MsgBlocks {
		// Sub-pictures are dispatched by the server loop, never received
		// through the shim; recovery kinds are unsupported in resident mode.
		return s.srv.port.Recv(kind)
	}
	if q := s.srv.pending[s.session]; len(q) > 0 {
		m := q[0]
		s.srv.pending[s.session] = q[1:]
		return m
	}
	for {
		m := s.srv.port.Recv(kind)
		if m == nil {
			return nil
		}
		if m.Session == s.session {
			return m
		}
		s.srv.pending[m.Session] = append(s.srv.pending[m.Session], m)
	}
}

func (s *sessionNet) TryRecv(kind cluster.MsgKind) (*cluster.Message, bool) {
	if kind != cluster.MsgBlocks {
		return s.srv.port.TryRecv(kind)
	}
	if q := s.srv.pending[s.session]; len(q) > 0 {
		m := q[0]
		s.srv.pending[s.session] = q[1:]
		return m, true
	}
	for {
		m, ok := s.srv.port.TryRecv(kind)
		if !ok || m == nil {
			return m, ok
		}
		if m.Session == s.session {
			return m, true
		}
		s.srv.pending[m.Session] = append(s.srv.pending[m.Session], m)
	}
}

func (s *sessionNet) RecvTimeout(kind cluster.MsgKind, d time.Duration) (*cluster.Message, bool) {
	if kind != cluster.MsgBlocks {
		return s.srv.port.RecvTimeout(kind, d)
	}
	if q := s.srv.pending[s.session]; len(q) > 0 {
		m := q[0]
		s.srv.pending[s.session] = q[1:]
		return m, false
	}
	deadline := time.Now().Add(d)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, true
		}
		m, timedOut := s.srv.port.RecvTimeout(kind, remain)
		if timedOut {
			return nil, true
		}
		if m == nil {
			return nil, false
		}
		if m.Session == s.session {
			return m, false
		}
		s.srv.pending[m.Session] = append(s.srv.pending[m.Session], m)
	}
}

func (s *sessionNet) Done() <-chan struct{} { return s.srv.port.Done() }

// Serve runs the resident tile-decoder loop until a FlagShutdown message
// arrives (clean exit) or the transport aborts. Per-session protocol state is
// exactly the batch decoder's — a fresh Decoder per session — so a single
// session through Serve is byte-identical to a batch Run.
func Serve(port cluster.Port, cfg ServeConfig) error {
	srv := &server{
		cfg:      cfg,
		port:     port,
		sessions: map[int]*Decoder{},
		pending:  map[int][]*cluster.Message{},
	}
	if cfg.Recovery != nil {
		srv.cfg.Recovery.Cfg = cfg.Recovery.Cfg.WithDefaults()
		return srv.serveRecover()
	}
	for {
		t0 := time.Now()
		msg := port.Recv(cluster.MsgSubPicture)
		wait := time.Since(t0)
		if msg == nil {
			return fmt.Errorf("tile %d: fabric aborted", cfg.Tile)
		}
		switch {
		case msg.Flags&cluster.FlagShutdown != 0:
			return nil
		case msg.Flags&cluster.FlagSessionOpen != 0:
			if err := srv.open(msg); err != nil {
				return err
			}
		default:
			d := srv.sessions[msg.Session]
			if d == nil {
				// A session completes on the first Final that finds no
				// pictures owed; the other splitters' Finals trail in after
				// the state is gone. (A Final cannot precede its session's
				// open: every splitter forwards the open before anything
				// else, and sender order is preserved.)
				if msg.Flags&cluster.FlagSessionFinal != 0 {
					if cfg.Pooled {
						// Final markers are marshalled per destination; this
						// tile is the payload's only consumer.
						cluster.PutSlab(msg.Payload)
					}
					continue
				}
				return fmt.Errorf("tile %d: picture for unknown session %d", cfg.Tile, msg.Session)
			}
			// The receive wait belongs to the session whose message ended it
			// (batch attribution, per stream).
			d.Breakdown().Add(metrics.PhaseReceive, wait)
			done, err := d.HandleSubPicture(msg)
			if err != nil {
				return err
			}
			if done {
				srv.finish(msg.Session, d)
			}
		}
	}
}

// open creates the per-session decoder from the header prefix carried by the
// session-open message. Each splitter forwards the open once, so duplicates
// past the first are skipped.
func (srv *server) open(msg *cluster.Message) error {
	if srv.sessions[msg.Session] != nil {
		return nil
	}
	seq, err := mpeg2.ParseSequenceHeaderBytes(msg.Payload)
	if err != nil {
		return fmt.Errorf("tile %d: session %d open: %w", srv.cfg.Tile, msg.Session, err)
	}
	geo, err := wall.NewGeometry(seq.MBWidth()*16, seq.MBHeight()*16, srv.cfg.M, srv.cfg.N, srv.cfg.Overlap)
	if err != nil {
		return fmt.Errorf("tile %d: session %d open: %w", srv.cfg.Tile, msg.Session, err)
	}
	var onFrame func(int, int, *mpeg2.PixelBuf)
	if srv.cfg.OnFrame != nil {
		sess := msg.Session
		onFrame = func(displayIdx, tile int, buf *mpeg2.PixelBuf) {
			srv.cfg.OnFrame(sess, displayIdx, tile, buf)
		}
	}
	var onEmit func(int, int)
	if srv.cfg.OnEmit != nil {
		sess := msg.Session
		onEmit = func(displayIdx, tile int) {
			srv.cfg.OnEmit(sess, displayIdx, tile)
		}
	}
	dcfg := Config{
		Seq:            seq,
		Geo:            geo,
		Tile:           srv.cfg.Tile,
		HaloPx:         HaloForFCode(srv.cfg.MaxFCode),
		TileNode:       srv.cfg.TileNode,
		OnFrame:        onFrame,
		OnEmit:         onEmit,
		UnbatchedSends: srv.cfg.UnbatchedSends,
		Pooled:         srv.cfg.Pooled,
	}
	if rh := srv.cfg.Recovery; rh != nil {
		if rh.OnOpen != nil {
			rh.OnOpen(msg.Session, msg.Payload)
		}
		// The chaos plan stays with the serve loop (kills are injected before
		// dispatch); per-session decoders only need the tuning, the lease and
		// the session's intervention counters.
		dcfg.Recovery = &recovery.DecoderHooks{
			Hooks: recovery.Hooks{Cfg: rh.Cfg, Lease: rh.Lease, Rec: rh.Rec(msg.Session)},
		}
	}
	srv.sessions[msg.Session] = NewDecoder(&sessionNet{srv: srv, session: msg.Session}, dcfg)
	return nil
}

// serveRecover is the fault-masking serve loop: it re-joins resumed sessions,
// renews the incarnation's lease on every message, honours the chaos plan,
// and dispatches data through the tolerant HandleSubPictureRecover path.
// Unknown sessions and undecodable opens are skipped, never fatal — a broken
// session must not take the wall down.
func (srv *server) serveRecover() error {
	rh := srv.cfg.Recovery
	for _, rs := range rh.Resume {
		if err := srv.open(&cluster.Message{Session: rs.ID, Payload: rs.Header}); err != nil {
			continue // undecodable header: the session fails upstream
		}
		srv.sessions[rs.ID].ResumeAt(rs.NextPic, rs.Holes)
	}
	// Receive in deadline-granularity ticks so reorder holes are swept even
	// while the port is idle (the hole's successors may be the only traffic a
	// session will ever see again).
	tick := rh.Cfg.PictureDeadline / 2
	if tick <= 0 {
		tick = 50 * time.Millisecond
	}
	for {
		srv.sweepDeadlines()
		t0 := time.Now()
		msg, timedOut := srv.port.RecvTimeout(cluster.MsgSubPicture, tick)
		wait := time.Since(t0)
		if rh.Lease != nil {
			rh.Lease.Renew()
		}
		if timedOut {
			continue
		}
		if msg == nil {
			return fmt.Errorf("tile %d: fabric aborted", srv.cfg.Tile)
		}
		switch {
		case msg.Flags&cluster.FlagShutdown != 0:
			return nil
		case msg.Flags&cluster.FlagSessionOpen != 0:
			_ = srv.open(msg)
		default:
			d := srv.sessions[msg.Session]
			if d == nil {
				// Completed session's trailing finals, or state lost past the
				// restart budget; either way the payload — marshalled for this
				// tile alone — has no consumer left.
				if srv.cfg.Pooled {
					cluster.PutSlab(msg.Payload)
				}
				continue
			}
			// Injected crash before the dispatch (and thus before the ack):
			// the sub-picture is consumed but unacknowledged, the hardest
			// loss for the upstream credit ledger.
			if msg.Flags&(cluster.FlagSessionFinal|cluster.FlagReplay) == 0 &&
				rh.Chaos.DecoderDies(srv.cfg.Tile, msg.Seq) {
				return recovery.ErrKilled
			}
			d.Breakdown().Add(metrics.PhaseReceive, wait)
			done, err := d.HandleSubPictureRecover(msg, rh.NumSplitters)
			if err != nil {
				return err
			}
			if done {
				srv.finish(msg.Session, d)
			}
		}
	}
}

// sweepDeadlines runs the per-picture deadline over every session's reorder
// stash, finishing the sessions a sweep completes.
func (srv *server) sweepDeadlines() {
	deadline := srv.cfg.Recovery.Cfg.PictureDeadline
	for session, d := range srv.sessions {
		if d.SweepDeadline(deadline) {
			srv.finish(session, d)
		}
	}
}

// finish completes a session on this tile: flush the reorder tail, hand the
// result out, drop the state, and send the drain ack that lets the root
// close the session.
func (srv *server) finish(session int, d *Decoder) {
	d.releaseStash()
	res := d.Finish()
	delete(srv.sessions, session)
	delete(srv.pending, session)
	if srv.cfg.OnResult != nil {
		srv.cfg.OnResult(session, srv.cfg.Tile, res)
	}
	srv.port.Send(srv.cfg.RootNode, &cluster.Message{
		Kind:    cluster.MsgAck,
		Seq:     cluster.DrainAckSeq,
		Session: session,
	})
}
