package conformance

import (
	"fmt"
	"math/rand"
	"sort"

	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/service"
	"tiledwall/internal/wall"
)

// Chaos mode extends the conformance oracle to the recovery layer: the same
// serial-vs-parallel differ runs while (optionally) one random decoder is
// killed mid-stream and respawned by the supervisor. The contract under chaos
// is weaker than bit-exactness but still sharp:
//
//   - every configuration completes (no hang, no abort);
//   - every tile emits every picture index exactly once — restarts and
//     replays must neither lose nor duplicate a frame;
//   - when the recovery snapshot is Clean (no restarts, no concealment — the
//     fault-free sweep), the output must still be byte-identical with the
//     serial decode.

// ChaosOptions parameterises one chaos sweep.
type ChaosOptions struct {
	// Seed derives every per-configuration random stream (kill site), making
	// a sweep reproducible from one number.
	Seed int64
	// Kill arms one decoder crash per run, at a seeded random tile and
	// picture. Without it the sweep is fault-free: the recovery layer is on
	// but never intervenes, so the run must be Clean and bit-exact.
	Kill bool
	// Pooled arms buffer pooling, proving recovery composes with slab
	// reference counting.
	Pooled bool
	// StallTimeout bounds a hung run (watchdog backstop); 0 means 30s.
	StallTimeout time.Duration
}

// ChaosResult is the outcome of one configuration under chaos.
type ChaosResult struct {
	Config   service.Config
	Err      error
	Recovery metrics.RecoverySnapshot
	// ExactlyOnceViolation describes the first emission-log violation, or ""
	// when every tile emitted every picture exactly once.
	ExactlyOnceViolation string
	// Divergence is the serial diff, populated only for Clean runs (degraded
	// runs legitimately differ where concealment traded pixels for liveness).
	Divergence *Divergence
	// KilledTile and KilledAt record the armed kill site (-1 when none).
	KilledTile, KilledAt int
}

// Name renders the configuration in the paper's notation.
func (r ChaosResult) Name() string {
	return fmt.Sprintf("1-%d-(%d,%d)ov%d", r.Config.K, r.Config.M, r.Config.N, r.Config.Overlap)
}

// chaosRecoveryConfig is tuned so detection+replay comfortably outpaces both
// the per-picture deadline and the watchdog.
func chaosRecoveryConfig() recovery.Config {
	return recovery.Config{
		Enabled:         true,
		LeaseInterval:   3 * time.Millisecond,
		LeaseExpiry:     12 * time.Millisecond,
		PictureDeadline: 250 * time.Millisecond,
		MaxRestarts:     3,
	}
}

// emissionViolation checks the exactly-once property of a run's emission
// log; it returns "" when every tile emitted 0..pictures-1 exactly once.
func emissionViolation(emissions [][]int, pictures int) string {
	if len(emissions) == 0 {
		return "no emission log recorded"
	}
	for tile, idxs := range emissions {
		got := append([]int(nil), idxs...)
		sort.Ints(got)
		if len(got) != pictures {
			return fmt.Sprintf("tile %d emitted %d frames, want %d", tile, len(got), pictures)
		}
		for i, v := range got {
			if v != i {
				return fmt.Sprintf("tile %d emissions not exactly-once (sorted: %v)", tile, got)
			}
		}
	}
	return ""
}

// chaosRunner carries the serial reference across per-configuration runs.
type chaosRunner struct {
	stream     []byte
	ref        []mpeg2.DecodedPicture
	picW, picH int
	stall      time.Duration
	opt        ChaosOptions
}

func newChaosRunner(stream []byte, opt ChaosOptions) (*chaosRunner, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, fmt.Errorf("conformance: serial parse: %w", err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("conformance: serial decode: %w", err)
	}
	stall := opt.StallTimeout
	if stall <= 0 {
		stall = 30 * time.Second
	}
	return &chaosRunner{
		stream: stream,
		ref:    ref,
		picW:   dec.Seq().MBWidth() * 16,
		picH:   dec.Seq().MBHeight() * 16,
		stall:  stall,
		opt:    opt,
	}, nil
}

// run executes one configuration; ci seeds the kill site.
func (cr *chaosRunner) run(cfg service.Config, ci int) ChaosResult {
	rng := rand.New(rand.NewSource(cr.opt.Seed*1000003 + int64(ci)))
	cfg.CollectFrames = true
	cfg.Recovery = chaosRecoveryConfig()
	cfg.Pooled = cr.opt.Pooled
	cfg.Fabric = cluster.Config{StallTimeout: cr.stall}
	out := ChaosResult{Config: cfg, KilledTile: -1, KilledAt: -1}
	if cr.opt.Kill && len(cr.ref) > 2 {
		out.KilledTile = rng.Intn(cfg.M * cfg.N)
		out.KilledAt = 1 + rng.Intn(len(cr.ref)-2)
		cfg.Chaos = recovery.ChaosPlan{
			KillDecoder:   true,
			DecoderTile:   out.KilledTile,
			KillAtPicture: out.KilledAt,
		}
	}
	res, err := service.Run(cr.stream, cfg)
	if err != nil {
		out.Err = err
		return out
	}
	out.Recovery = res.Recovery
	out.ExactlyOnceViolation = emissionViolation(res.TileEmissions, len(cr.ref))
	if out.Recovery.Clean() {
		geo, gerr := wall.NewGeometry(cr.picW, cr.picH, cfg.M, cfg.N, cfg.Overlap)
		if gerr != nil {
			geo = nil
		}
		out.Divergence = Diff(cr.ref, res.Frames, geo)
	}
	return out
}

// RunChaosMatrix runs every configuration under seeded chaos and reports the
// per-configuration verdicts. The serial decode error, if any, is returned
// directly (no oracle value without a reference).
func RunChaosMatrix(stream []byte, configs []service.Config, opt ChaosOptions) ([]ChaosResult, error) {
	runner, err := newChaosRunner(stream, opt)
	if err != nil {
		return nil, err
	}
	out := make([]ChaosResult, 0, len(configs))
	for ci, cfg := range configs {
		out = append(out, runner.run(cfg, ci))
	}
	return out, nil
}
