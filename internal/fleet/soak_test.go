// Fleet soak and chaos tests: a thousand-session storm across a heterogeneous
// wall farm, byte-verified against the serial reference on a deterministic
// sample, and a seeded wall-kill proving queued sessions re-route to the
// survivors with typed errors only. The package is external (fleet_test) so
// it can use the conformance stream generator, which depends on service.
//
// Seeded via TILEDWALL_CHAOS_SEED like the chaos-tcp CI matrix; run short
// mode (`go test -short`) for the capped version `go test ./...` uses.
package fleet_test

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/conformance"
	"tiledwall/internal/fleet"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/video"
)

// chaosSeed reads the CI matrix seed; 1 when unset so local runs are
// deterministic too.
func chaosSeed() int64 {
	if v := os.Getenv("TILEDWALL_CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

// soakStream is one generated tiny stream plus its serial reference decode.
type soakStream struct {
	data []byte
	ref  []mpeg2.DecodedPicture
}

// genTinyStreams builds the soak's stream pool: deliberately tiny
// (64x48, a handful of frames) so a thousand sessions stay fast under -race,
// but sweeping scene, GOP shape and quantiser knobs like the conformance
// sweep does.
func genTinyStreams(t *testing.T) []soakStream {
	t.Helper()
	params := []conformance.StreamParams{
		{Seed: 101, Scene: video.SceneFilm, Width: 64, Height: 48, Frames: 4, GOPSize: 4, BSpacing: 1, InitialQScale: 6, FCode: 1},
		{Seed: 102, Scene: video.SceneAnimation, Width: 64, Height: 64, Frames: 5, GOPSize: 4, BSpacing: 2, InitialQScale: 8, FCode: 1, ClosedGOP: true},
		{Seed: 103, Scene: video.SceneFishTank, Width: 80, Height: 48, Frames: 4, GOPSize: 4, BSpacing: 1, InitialQScale: 5, FCode: 1, QScaleType: true},
		{Seed: 104, Scene: video.SceneBroadcast, Width: 64, Height: 48, Frames: 6, GOPSize: 3, BSpacing: 1, InitialQScale: 7, FCode: 1, IntraVLCFormat: true},
		{Seed: 105, Scene: video.SceneFlyby, Width: 80, Height: 64, Frames: 4, GOPSize: 4, BSpacing: 2, InitialQScale: 6, FCode: 2, AlternateScan: true},
		{Seed: 106, Scene: video.SceneFilm, Width: 64, Height: 48, Frames: 5, GOPSize: 5, BSpacing: 1, InitialQScale: 9, FCode: 1},
	}
	out := make([]soakStream, len(params))
	for i, p := range params {
		data, err := p.Generate()
		if err != nil {
			t.Fatalf("stream %d (%s): %v", i, p, err)
		}
		dec, err := mpeg2.NewDecoder(data)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		ref, err := dec.DecodeAll()
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		out[i] = soakStream{data: data, ref: ref}
	}
	return out
}

func verifyFrames(ref []mpeg2.DecodedPicture, got []*mpeg2.PixelBuf) error {
	if len(ref) != len(got) {
		return fmt.Errorf("frame count: serial %d, session %d", len(ref), len(got))
	}
	for i := range ref {
		if !video.Equal(ref[i].Buf, got[i]) {
			return fmt.Errorf("frame %d differs from serial decode", i)
		}
	}
	return nil
}

// feedSession drives one stream through an already-open session in ragged
// chunks and closes it.
func feedSession(s *fleet.Session, data []byte, chunk int) (*service.SessionResult, error) {
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := s.Feed(data[off:end]); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s.Close()
}

// soakFleetConfig is the mixed-geometry four-wall farm both fleet soaks use:
// a one-level single tile, a one-level strip, a one-level quad and a
// two-level quad — every wall collecting frames for byte verification.
func soakFleetConfig() []service.Config {
	return []service.Config{
		{K: 0, M: 1, N: 1, MaxSessions: 8, CollectFrames: true},
		{K: 0, M: 2, N: 1, MaxSessions: 8, CollectFrames: true},
		{K: 0, M: 2, N: 2, MaxSessions: 8, CollectFrames: true},
		{K: 1, M: 2, N: 2, MaxSessions: 8, CollectFrames: true, SplitWorkers: 1},
	}
}

// TestFleetSoak1k is the fleet gate: 1024 sessions (96 in -short) of mixed
// tiny streams storm a four-wall heterogeneous fleet through 64 concurrent
// feeders — twice the aggregate capacity, so the admission queue is
// exercised throughout. Every 16th session is byte-verified against the
// serial reference; every open latency is recorded for the p99; zero errors
// of any kind are tolerated.
func TestFleetSoak1k(t *testing.T) {
	streams := genTinyStreams(t)
	sessions, workers := 1024, 64
	if testing.Short() {
		sessions, workers = 96, 16
	}
	seedOff := int(chaosSeed() % int64(len(streams)))
	f, err := fleet.New(fleet.Config{
		Walls:        soakFleetConfig(),
		OpenDeadline: 120 * time.Second,
		MaxQueue:     workers,
		Tenants: map[string]fleet.Tenant{
			"t0": {MaxSessions: workers},
			"t1": {MaxSessions: workers},
			"t2": {MaxInFlightPictures: 32 * 8},
			"t3": {},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	}()

	var (
		mu        sync.Mutex
		openLat   []time.Duration
		perWall   = make([]int, len(soakFleetConfig()))
		frames    atomic.Int64
		failures  []string
		next      atomic.Int64
		startedAt = time.Now()
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions {
					return
				}
				st := streams[(i+seedOff)%len(streams)]
				opt := fleet.OpenOptions{
					Tenant:   fmt.Sprintf("t%d", i%4),
					Priority: fleet.Priority(i % 3),
				}
				if i%8 == 0 {
					opt.MinTiles = 4 // only the quad walls qualify
				}
				t0 := time.Now()
				s, err := f.Open(fmt.Sprintf("soak-%d", i), opt)
				lat := time.Since(t0)
				if err != nil {
					fail("session %d open: %v", i, err)
					continue
				}
				if opt.MinTiles == 4 && s.Wall() < 2 {
					fail("session %d wanted 4 tiles, landed on wall %d", i, s.Wall())
				}
				mu.Lock()
				openLat = append(openLat, lat)
				perWall[s.Wall()]++
				mu.Unlock()
				chunk := 64<<(i%5) + 7*(i%97) + 1
				res, err := feedSession(s, st.data, chunk)
				if err != nil {
					fail("session %d: %v", i, err)
					continue
				}
				frames.Add(int64(len(res.Frames)))
				if i%16 == 0 {
					if err := verifyFrames(st.ref, res.Frames); err != nil {
						fail("session %d divergence: %v", i, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(startedAt)

	if len(failures) > 0 {
		for i, m := range failures {
			if i >= 10 {
				t.Errorf("... and %d more", len(failures)-10)
				break
			}
			t.Error(m)
		}
		t.Fatalf("%d of %d sessions failed", len(failures), sessions)
	}
	if len(openLat) != sessions {
		t.Fatalf("recorded %d open latencies for %d sessions", len(openLat), sessions)
	}
	for i, n := range perWall {
		if n == 0 {
			t.Errorf("wall %d decoded no sessions: %v", i, perWall)
		}
	}
	sort.Slice(openLat, func(i, j int) bool { return openLat[i] < openLat[j] })
	p50 := openLat[len(openLat)/2]
	p99 := openLat[len(openLat)*99/100]
	fps := float64(frames.Load()) / elapsed.Seconds()
	st := f.Stats()
	t.Logf("fleet soak: %d sessions over %d walls %v in %v — aggregate %.0f fps, open p50 %v p99 %v, granted %d shed %d",
		sessions, len(perWall), perWall, elapsed.Round(time.Millisecond), fps, p50, p99, st.Granted, st.Shed)
	if st.Shed != 0 {
		t.Fatalf("soak shed %d opens; the queue should have absorbed the storm", st.Shed)
	}
}

// TestFleetChaosReroute is the seeded wall-kill property test: mid-storm, one
// seeded wall's transport dies. The properties, for every seed: every failed
// session failed on the victim slot with a typed error (the injected cause, a
// link fault, or a typed session error — never an untyped one), the storm
// keeps completing on the survivors, the victim slot is recycled back into
// rotation, and a post-storm session on it decodes byte-exact.
func TestFleetChaosReroute(t *testing.T) {
	streams := genTinyStreams(t)
	seed := chaosSeed()
	sessions, workers := 96, 12
	if testing.Short() {
		sessions = 48
	}
	f, err := fleet.New(fleet.Config{
		Walls: []service.Config{
			{K: 0, M: 1, N: 1, MaxSessions: 2, CollectFrames: true},
			{K: 0, M: 1, N: 1, MaxSessions: 2, CollectFrames: true},
			{K: 0, M: 1, N: 1, MaxSessions: 2, CollectFrames: true},
			{K: 0, M: 1, N: 1, MaxSessions: 2, CollectFrames: true},
		},
		OpenDeadline: 120 * time.Second,
		MaxQueue:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	victim := int(seed % 4)
	killAfter := sessions / 3
	// The canary sits open on the victim for the whole storm, so the kill is
	// guaranteed to disrupt a live session whatever the storm's timing: its
	// feed must surface the injected cause, typed, after the kill. The
	// least-loaded router lands it on the victim within the first four opens
	// (one per idle wall).
	var canary *fleet.Session
	var extras []*fleet.Session
	for len(extras) < 4 && canary == nil {
		s, err := f.Open(fmt.Sprintf("canary-probe-%d", len(extras)), fleet.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Wall() == victim {
			canary = s
		} else {
			extras = append(extras, s)
		}
	}
	for _, s := range extras {
		s.Close()
	}
	if canary == nil {
		t.Fatalf("no probe landed on victim wall %d", victim)
	}
	var (
		mu         sync.Mutex
		untyped    []string
		collateral []string
		done       atomic.Int64
		killed     atomic.Bool
		afterKill  atomic.Int64
		next       atomic.Int64
	)
	typedErr := func(err error) bool {
		return errors.Is(err, cluster.ErrStalled) ||
			errors.Is(err, cluster.ErrLinkLost) ||
			errors.Is(err, service.ErrWallClosed) ||
			conformance.TypedSessionError(err)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions {
					return
				}
				if !killed.Load() && int(done.Load()) >= killAfter {
					if killed.CompareAndSwap(false, true) {
						if err := f.InjectWallFailure(victim, cluster.ErrStalled); err != nil {
							t.Errorf("inject: %v", err)
						}
					}
				}
				st := streams[(i+int(seed))%len(streams)]
				s, err := f.Open(fmt.Sprintf("chaos-%d", i), fleet.OpenOptions{})
				if err != nil {
					// Opens never touch a dead wall (the router skips it), so
					// any open error is a harness failure.
					mu.Lock()
					untyped = append(untyped, fmt.Sprintf("session %d open: %v", i, err))
					mu.Unlock()
					continue
				}
				wall := s.Wall()
				res, err := feedSession(s, st.data, 256+13*(i%7))
				if err != nil {
					if !typedErr(err) {
						mu.Lock()
						untyped = append(untyped, fmt.Sprintf("session %d (wall %d): %v", i, wall, err))
						mu.Unlock()
					}
					if wall != victim {
						mu.Lock()
						collateral = append(collateral, fmt.Sprintf("session %d failed on surviving wall %d: %v", i, wall, err))
						mu.Unlock()
					}
					continue
				}
				if err := verifyFrames(st.ref, res.Frames); err != nil {
					mu.Lock()
					untyped = append(untyped, fmt.Sprintf("session %d (wall %d) divergence: %v", i, wall, err))
					mu.Unlock()
					continue
				}
				done.Add(1)
				if killed.Load() {
					afterKill.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	for _, m := range untyped {
		t.Errorf("non-typed failure: %s", m)
	}
	for _, m := range collateral {
		t.Errorf("collateral damage: %s", m)
	}
	if t.Failed() {
		t.FailNow()
	}
	if !killed.Load() {
		t.Fatalf("storm finished before the kill threshold %d", killAfter)
	}
	if afterKill.Load() == 0 {
		t.Fatal("no session completed after the wall kill")
	}
	// The canary was live on the victim when it died: its feed and close
	// must surface the injected typed cause, nothing else.
	if err := canary.Feed([]byte{0, 0, 0, 0}); !errors.Is(err, cluster.ErrStalled) {
		t.Fatalf("canary feed after kill: %v, want the injected cluster.ErrStalled", err)
	}
	if _, err := canary.Close(); err == nil || !typedErr(err) {
		t.Fatalf("canary close after kill: %v, want a typed error", err)
	}
	// The victim must come back: recycled at least once and accepting again.
	deadline := time.Now().Add(30 * time.Second)
	for f.Stats().Recycled < 1 || !f.Stats().Walls[victim].Up {
		if time.Now().After(deadline) {
			t.Fatalf("victim wall %d never recycled: %+v", victim, f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := f.Stats()
	t.Logf("chaos reroute: seed %d victim %d, %d/%d completed (%d post-kill), recycled %d",
		seed, victim, done.Load(), sessions, afterKill.Load(), st.Recycled)
	// Byte-exact decode on the respawned incarnation closes the loop.
	s, err := f.Open("post-chaos", fleet.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := feedSession(s, streams[0].data, 512)
	if err != nil {
		t.Fatalf("post-chaos session: %v", err)
	}
	if err := verifyFrames(streams[0].ref, res.Frames); err != nil {
		t.Fatalf("post-chaos divergence: %v", err)
	}
}
