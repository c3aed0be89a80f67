package conformance

import (
	"testing"

	"tiledwall/internal/service"
)

// TestROIMatrix holds the subscription path to the oracle: every matrix
// configuration, on both transports, plays a session subscribing a random
// proper tile subset with a mid-stream re-subscription, and every subscribed
// tile must be byte-identical to the serial reference — the halo closure may
// skip work, never change pixels.
func TestROIMatrix(t *testing.T) {
	// fcode=1 seeds with B pictures: small motion reach means far tiles are
	// not halo sources, so the matrix must produce actual skip markers (the
	// aggregate assertion below) on top of per-tile byte-identity.
	for _, seed := range []int64{4, 14} {
		p := ParamsForSeed(seed)
		seed := seed
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			stream, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunROIMatrix(stream, DefaultMatrix(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2*len(DefaultMatrix()) {
				t.Fatalf("ROI matrix ran %d axes, want %d", len(results), 2*len(DefaultMatrix()))
			}
			var skipped int64
			for _, r := range results {
				if err := r.Failure(); err != nil {
					t.Error(err)
				}
				skipped += r.SkippedSubPics
			}
			if skipped == 0 {
				t.Error("no configuration shipped a single skip marker — the partial-subscription path did not engage")
			}
		})
	}
}

// TestTrickOracle verifies trick play against the serial decode of the same
// picture subset: drop-B emits exactly the serial I/P frames, I-only exactly
// the serial I frames, with the dropped-picture accounting to match.
func TestTrickOracle(t *testing.T) {
	for _, seed := range []int64{4, 9} {
		p := ParamsForSeed(seed)
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			stream, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs := []service.Config{
				{K: 0, M: 2, N: 2},
				{K: 1, M: 2, N: 2},
				{K: 2, M: 2, N: 2},
				{K: 2, M: 3, N: 2},
				{K: 3, M: 2, N: 2, Overlap: 16},
			}
			results, err := RunTrickOracle(stream, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if err := r.Failure(); err != nil {
					t.Error(err)
				}
				if r.Err == nil && r.Skipped == 0 {
					t.Errorf("%s/%s: no pictures were dropped — trick mode did not engage", MatrixResult{Config: r.Config}.Name(), r.Mode)
				}
			}
		})
	}
}
