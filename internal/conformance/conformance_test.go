package conformance

import (
	"errors"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/wall"
)

// oracleSeeds are the committed conformance seeds. Together they cover every
// scene class and both settings of qscale type, intra VLC format, alternate
// scan and closed GOP (checked by TestSweepCoverage below, so drift in
// ParamsForSeed cannot silently shrink coverage).
var oracleSeeds = []int64{1, 2, 3, 5, 8, 11, 17, 23}

// TestSweepCoverage pins the property that makes the seed list above an
// actual sweep: across the committed seeds, every coding dimension the
// parallel protocol is sensitive to takes both (or all) of its values.
func TestSweepCoverage(t *testing.T) {
	var qst, b15, alt, closed [2]bool
	scenes := map[string]bool{}
	gops := map[int]bool{}
	fcodes := map[int]bool{}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for _, seed := range oracleSeeds {
		p := ParamsForSeed(seed)
		qst[b2i(p.QScaleType)] = true
		b15[b2i(p.IntraVLCFormat)] = true
		alt[b2i(p.AlternateScan)] = true
		closed[b2i(p.ClosedGOP)] = true
		scenes[p.Scene.String()] = true
		gops[p.BSpacing] = true
		fcodes[p.FCode] = true
	}
	for name, dim := range map[string][2]bool{"qscale_type": qst, "intra_vlc_format": b15, "alternate_scan": alt, "closed_gop": closed} {
		if !dim[0] || !dim[1] {
			t.Errorf("seed sweep does not cover both settings of %s", name)
		}
	}
	if len(scenes) < 3 {
		t.Errorf("seed sweep covers only %d scene classes: %v", len(scenes), scenes)
	}
	if len(gops) < 2 {
		t.Errorf("seed sweep covers only one B spacing: %v", gops)
	}
	if len(fcodes) < 2 {
		t.Errorf("seed sweep covers only one f_code: %v", fcodes)
	}
}

// TestOracleMatrix is the differential-decode oracle: every seeded stream
// must decode bit-exactly under every parallel configuration. On failure the
// report names the first divergent picture, macroblock and owning tile.
func TestOracleMatrix(t *testing.T) {
	for _, seed := range oracleSeeds {
		p := ParamsForSeed(seed)
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			stream, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunMatrix(stream, DefaultMatrix())
			if err != nil {
				t.Fatal(err)
			}
			if len(results) < 6 {
				t.Fatalf("matrix ran only %d configurations, want >= 6", len(results))
			}
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("%s: pipeline failed: %v", r.Name(), r.Err)
					continue
				}
				if r.Divergence != nil {
					t.Errorf("%s: %s", r.Name(), r.Divergence)
				}
			}
		})
	}
}

// TestSessionMatrix holds the resident session path to the oracle: every
// matrix configuration decodes 4 concurrent chunk-fed sessions on one wall,
// and each session must be byte-identical to the serial reference. Two seeds
// with different coding parameters bound the runtime; TestOracleMatrix
// already covers the full seed sweep through the (same) session machinery
// via service.Run.
func TestSessionMatrix(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		p := ParamsForSeed(seed)
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			stream, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunSessionMatrix(stream, DefaultMatrix(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(DefaultMatrix()) {
				t.Fatalf("session matrix ran %d configurations, want %d", len(results), len(DefaultMatrix()))
			}
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("%s: resident pipeline failed: %v", r.Name(), r.Err)
					continue
				}
				if r.Divergence != nil {
					t.Errorf("%s: %s", r.Name(), r.Divergence)
				}
			}
		})
	}
}

// TestFleetMatrix holds the fleet front door to the oracle: a dozen
// concurrent chunk-fed copies of the stream are routed across a
// heterogeneous four-wall farm — through queued admission, since every wall
// is sized below the session count — and each session must decode
// byte-identical to the serial reference under whichever geometry the
// router picked. One seed bounds the runtime; the wall-level machinery under
// every route is swept across seeds by TestSessionMatrix.
func TestFleetMatrix(t *testing.T) {
	p := ParamsForSeed(7)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 12
	results, err := RunFleetMatrix(stream, sessions)
	if err != nil {
		t.Fatal(err)
	}
	wallsHit := map[int]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("session %d (wall %d): %v", r.Session, r.Wall, r.Err)
			continue
		}
		if r.Divergence != nil {
			t.Errorf("session %d (%s): %s", r.Session, r.Grid, r.Divergence)
			continue
		}
		wallsHit[r.Wall] = true
	}
	if len(wallsHit) != len(FleetMatrixWalls(sessions)) {
		t.Errorf("fleet matrix exercised %d of %d walls", len(wallsHit), len(FleetMatrixWalls(sessions)))
	}
}

// TestTransportMatrix holds the TCP socket transport to the oracle: every
// matrix configuration (pooled, split-workers and overlap axes included)
// decodes the stream over the in-process fabric AND over TCP loopback, plus 2
// concurrent chunk-fed sessions on a resident TCP wall — all byte-identical
// to the serial reference. Two seeds with different coding parameters bound
// the runtime (disjoint from TestSessionMatrix's pair, widening the combined
// seed coverage of the resident path); the fabric side of every pair is
// already swept across all seeds by TestOracleMatrix.
func TestTransportMatrix(t *testing.T) {
	for _, seed := range []int64{2, 17} {
		p := ParamsForSeed(seed)
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			stream, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunTransportMatrix(stream, DefaultMatrix(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(DefaultMatrix()) {
				t.Fatalf("transport matrix ran %d configurations, want %d", len(results), len(DefaultMatrix()))
			}
			for _, r := range results {
				if err := r.Failure(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestDiffMinimisation plants a single-macroblock difference and checks the
// minimiser attributes it to the right picture, macroblock and tile.
func TestDiffMinimisation(t *testing.T) {
	p := ParamsForSeed(1)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16
	geo, err := wall.NewGeometry(picW, picH, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Copy the reference frames, then damage one luma sample in frame 2 at a
	// macroblock owned by the bottom-right tile.
	got := make([]*mpeg2.PixelBuf, len(ref))
	for i := range ref {
		b := mpeg2.NewPixelBuf(0, 0, picW, picH)
		copy(b.Y, ref[i].Buf.Y)
		copy(b.Cb, ref[i].Buf.Cb)
		copy(b.Cr, ref[i].Buf.Cr)
		got[i] = b
	}
	if d := Diff(ref, got, geo); d != nil {
		t.Fatalf("unexpected divergence on identical frames: %s", d)
	}
	mbx, _, mby, _ := geo.MBSpan(geo.TileIndex(1, 1))
	got[2].Y[(mby*16)*picW+mbx*16] ^= 0x40

	d := Diff(ref, got, geo)
	if d == nil {
		t.Fatal("planted divergence not detected")
	}
	if d.Frame != 2 || d.MBX != mbx || d.MBY != mby {
		t.Fatalf("divergence minimised to frame %d mb (%d,%d), want frame 2 mb (%d,%d)", d.Frame, d.MBX, d.MBY, mbx, mby)
	}
	if want := geo.Owner(mbx, mby); d.Tile != want {
		t.Fatalf("divergence attributed to tile %d, want %d", d.Tile, want)
	}

	// Frame-count mismatches must be reported, not panic the differ.
	if d := Diff(ref[:len(ref)-1], got, geo); d == nil || d.Frame != -1 {
		t.Fatalf("frame count mismatch not reported: %v", d)
	}
}

// TestCorruptionBounded sweeps the structured corruption injector over the
// serial decoder: every mutated stream must produce either a clean decode, a
// bounded typed error, or (via the resilient decoder) a concealed frame —
// never a panic, never an unbounded allocation.
func TestCorruptionBounded(t *testing.T) {
	p := ParamsForSeed(2)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range CorruptionKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 64; seed++ {
				corrupt := Corrupt(stream, kind, seed)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("kind=%s seed=%d: decoder panicked: %v", kind, seed, r)
						}
					}()
					dec, err := mpeg2.NewDecoder(corrupt)
					if err != nil {
						requireBounded(t, kind, seed, err)
						return
					}
					if _, err := dec.DecodeAll(); err != nil {
						requireBounded(t, kind, seed, err)
					}
				}()
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("kind=%s seed=%d: resilient decoder panicked: %v", kind, seed, r)
						}
					}()
					rd, err := mpeg2.NewResilientDecoder(corrupt)
					if err != nil {
						requireBounded(t, kind, seed, err)
						return
					}
					// The resilient decoder's contract: corrupt slices become
					// concealed frames, not errors.
					if _, err := rd.DecodeAll(); err != nil {
						t.Fatalf("kind=%s seed=%d: resilient decode failed: %v", kind, seed, err)
					}
				}()
			}
		})
	}
}

// requireBounded asserts a decode error is one of the typed sentinels the
// public API promises for hostile input.
func requireBounded(t *testing.T, kind CorruptionKind, seed int64, err error) {
	t.Helper()
	if errors.Is(err, mpeg2.ErrCorruptStream) || errors.Is(err, mpeg2.ErrUnsupported) {
		return
	}
	t.Fatalf("kind=%s seed=%d: error is not a typed stream error: %v", kind, seed, err)
}

// TestCorruptionParallelPipeline feeds corrupt streams to the full parallel
// pipeline. The pipeline may reject the stream or decode a concealed-ish
// result, but it must not panic and must not hang: the fabric stall watchdog
// converts any protocol deadlock into ErrStalled.
func TestCorruptionParallelPipeline(t *testing.T) {
	p := ParamsForSeed(3)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range CorruptionKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 8; seed++ {
				corrupt := Corrupt(stream, kind, seed)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("kind=%s seed=%d: pipeline panicked: %v", kind, seed, r)
						}
					}()
					cfg := service.Config{K: 2, M: 2, N: 2, Fabric: cluster.Config{StallTimeout: 5 * time.Second}}
					_, err := service.Run(corrupt, cfg)
					_ = err // any outcome but panic/hang is acceptable
				}()
			}
		})
	}
}
