// Kill/restart properties of the one-shot Run: every configuration of the
// recovery-enabled wall keeps exactly-once, bit-exact output through
// injected decoder and splitter crashes.
package service_test

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/service"
	"tiledwall/internal/video"
)

// propertySeed is fixed so CI is deterministic; the chaos matrix offsets it
// through TILEDWALL_CHAOS_SEED.
const propertySeed = 1977

// makeStream encodes a deterministic synthetic clip.
func makeStream(t testing.TB, kind video.SceneKind, w, h, frames int) []byte {
	t.Helper()
	cfg := encoder.Config{Width: w, Height: h, GOPSize: 6, BSpacing: 3, InitialQScale: 6}
	src := video.NewSource(kind, w, h, 11)
	e, err := encoder.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := e.Push(src.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

func serialFrames(t testing.TB, stream []byte) []mpeg2.DecodedPicture {
	t.Helper()
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		t.Fatal(err)
	}
	pics, err := dec.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	return pics
}

// recoverySeed drives the seeded fault-injection sweeps. Defaults to the
// deterministic propertySeed; the CI chaos matrix overrides it per job via
// TILEDWALL_CHAOS_SEED so three distinct fault schedules run on every push.
func recoverySeed(t *testing.T) int64 {
	if v := os.Getenv("TILEDWALL_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("TILEDWALL_CHAOS_SEED=%q: %v", v, err)
		}
		return propertySeed + n
	}
	return propertySeed
}

// testRecoveryConfig is tuned for test speed: fast heartbeats, short
// deadlines. PictureDeadline still comfortably exceeds LeaseExpiry so the
// restart+replay path wins the race against concealment.
func testRecoveryConfig() recovery.Config {
	return recovery.Config{
		Enabled:         true,
		LeaseInterval:   2 * time.Millisecond,
		LeaseExpiry:     10 * time.Millisecond,
		PictureDeadline: 150 * time.Millisecond,
		MaxRestarts:     3,
	}
}

// checkExactlyOnce asserts the chaos-mode delivery guarantee: every tile
// emitted every picture index exactly once.
func checkExactlyOnce(t *testing.T, name string, res *service.Result, pictures int) {
	t.Helper()
	if len(res.TileEmissions) == 0 {
		t.Fatalf("%s: no emission log", name)
	}
	for tile, idxs := range res.TileEmissions {
		got := append([]int(nil), idxs...)
		sort.Ints(got)
		if len(got) != pictures {
			t.Fatalf("%s: tile %d emitted %d frames, want %d (emissions: %v)", name, tile, len(got), pictures, idxs)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%s: tile %d emissions are not exactly-once: sorted %v", name, tile, got)
			}
		}
	}
}

// TestRecoveryFaultFreeBitExact: with the recovery layer on but no injected
// faults, the pipeline must stay bit-exact with the serial decoder and
// report a clean (ideally zero) recovery snapshot.
func TestRecoveryFaultFreeBitExact(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 12)
	ref := serialFrames(t, stream)
	for _, cfg := range []service.Config{
		{K: 0, M: 2, N: 1},
		{K: 2, M: 2, N: 2},
		{K: 2, M: 2, N: 2, Pooled: true},
		{K: 0, M: 2, N: 1, Pooled: true},
	} {
		cfg.CollectFrames = true
		cfg.Recovery = testRecoveryConfig()
		cfg.Fabric = cluster.Config{StallTimeout: 10 * time.Second}
		name := fmt.Sprintf("1-%d-(%d,%d) pooled=%v", cfg.K, cfg.M, cfg.N, cfg.Pooled)
		res, err := service.Run(stream, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Recovery.Clean() {
			t.Fatalf("%s: fault-free run not clean: %s", name, res.Recovery)
		}
		if len(res.Frames) != len(ref) {
			t.Fatalf("%s: %d frames, want %d", name, len(res.Frames), len(ref))
		}
		for i := range ref {
			if !video.Equal(ref[i].Buf, res.Frames[i]) {
				t.Fatalf("%s: frame %d differs from serial decode", name, i)
			}
		}
		checkExactlyOnce(t, name, res, len(ref))
	}
}

// TestRecoveryEmissionsWithoutFrameConsumer: a recovery wall that neither
// collects frames nor has a display hook still logs every tile emission
// exactly once — the log comes from the decoders' emission notice, not from
// a per-tile pixel copy nobody reads.
func TestRecoveryEmissionsWithoutFrameConsumer(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 12)
	pictures := len(serialFrames(t, stream))
	for _, cfg := range []service.Config{
		{K: 2, M: 2, N: 2},
		{K: 2, M: 2, N: 2, Pooled: true},
	} {
		cfg.Recovery = testRecoveryConfig()
		cfg.Fabric = cluster.Config{StallTimeout: 10 * time.Second}
		name := fmt.Sprintf("1-%d-(%d,%d) pooled=%v", cfg.K, cfg.M, cfg.N, cfg.Pooled)
		res, err := service.Run(stream, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Frames) != 0 {
			t.Fatalf("%s: %d frames collected without CollectFrames", name, len(res.Frames))
		}
		checkExactlyOnce(t, name, res, pictures)
	}
}

// TestRecoveryDecoderKill: a decoder crash mid-GOP is detected by lease
// expiry, the node is respawned, retained sub-pictures are replayed, and
// every picture index is still emitted exactly once on every tile.
func TestRecoveryDecoderKill(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 12)
	ref := serialFrames(t, stream)
	for _, tc := range []struct {
		cfg  service.Config
		tile int
		pic  int
	}{
		{service.Config{K: 0, M: 2, N: 1}, 1, 3},
		{service.Config{K: 2, M: 2, N: 2}, 2, 4},
		{service.Config{K: 1, M: 2, N: 2}, 0, 7},
		{service.Config{K: 2, M: 2, N: 2, Pooled: true}, 2, 4},
	} {
		cfg := tc.cfg
		cfg.Recovery = testRecoveryConfig()
		cfg.Chaos = recovery.ChaosPlan{KillDecoder: true, DecoderTile: tc.tile, KillAtPicture: tc.pic}
		cfg.Fabric = cluster.Config{StallTimeout: 10 * time.Second}
		name := fmt.Sprintf("1-%d-(%d,%d) kill tile %d at pic %d", cfg.K, cfg.M, cfg.N, tc.tile, tc.pic)
		res, err := service.Run(stream, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Recovery.Restarts < 1 {
			t.Fatalf("%s: kill did not register a restart: %s", name, res.Recovery)
		}
		checkExactlyOnce(t, name, res, len(ref))
	}
}

// TestRecoverySplitterKill: a second-level splitter crash is recovered by
// respawn plus replay of the root's retained (unacked) pictures, preserving
// exactly-once delivery on every tile.
func TestRecoverySplitterKill(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 12)
	ref := serialFrames(t, stream)
	for _, tc := range []struct {
		cfg service.Config
		idx int
		pic int
	}{
		// Round-robin: splitter idx handles pictures where pic % K == idx,
		// so the kill picture must be on the target's schedule.
		{service.Config{K: 2, M: 2, N: 2}, 1, 3},
		{service.Config{K: 3, M: 2, N: 1}, 0, 6},
		{service.Config{K: 2, M: 2, N: 2, Pooled: true}, 1, 3},
	} {
		cfg := tc.cfg
		cfg.Recovery = testRecoveryConfig()
		cfg.Chaos = recovery.ChaosPlan{KillSplitter: true, SplitterIdx: tc.idx, KillAtPicture: tc.pic}
		cfg.Fabric = cluster.Config{StallTimeout: 10 * time.Second}
		name := fmt.Sprintf("1-%d-(%d,%d) kill splitter %d at pic %d", cfg.K, cfg.M, cfg.N, tc.idx, tc.pic)
		res, err := service.Run(stream, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Recovery.Restarts < 1 {
			t.Fatalf("%s: kill did not register a restart: %s", name, res.Recovery)
		}
		checkExactlyOnce(t, name, res, len(ref))
	}
}

// TestPropertyDecoderKillContinuity is the seeded kill/restart property
// sweep: for random configurations, a random decoder killed at a random
// picture mid-GOP, the display sequence of every tile must stay continuous
// — each frame index emitted exactly once, no duplicates, no holes.
func TestPropertyDecoderKillContinuity(t *testing.T) {
	stream := makeStream(t, video.SceneFishTank, 160, 96, 10)
	ref := serialFrames(t, stream)
	seed := recoverySeed(t)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 5; trial++ {
		cfg := service.Config{
			K: rng.Intn(3),
			M: 1 + rng.Intn(2),
			N: 1 + rng.Intn(2),
		}
		tile := rng.Intn(cfg.M * cfg.N)
		pic := 1 + rng.Intn(len(ref)-2)
		cfg.Recovery = testRecoveryConfig()
		cfg.Chaos = recovery.ChaosPlan{KillDecoder: true, DecoderTile: tile, KillAtPicture: pic}
		cfg.Fabric = cluster.Config{StallTimeout: 10 * time.Second}
		name := fmt.Sprintf("trial %d: seed %d, 1-%d-(%d,%d), kill tile %d at pic %d",
			trial, seed, cfg.K, cfg.M, cfg.N, tile, pic)
		res, err := service.Run(stream, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Recovery.Restarts < 1 {
			t.Fatalf("%s: kill did not register a restart: %s", name, res.Recovery)
		}
		checkExactlyOnce(t, name, res, len(ref))
	}
}
