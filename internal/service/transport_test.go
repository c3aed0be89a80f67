package service_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/service"
	"tiledwall/internal/video"
)

// TestNamedTransportClosesClean builds a wall on each named transport, plays
// one session and closes it: the transport New built is New's to shut down,
// so every goroutine the wall started must be gone afterwards.
func TestNamedTransportClosesClean(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 64, 48, 4)
	for _, name := range []string{"fabric", "tcp"} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			w, err := service.New(service.Config{K: 1, M: 2, N: 1, Transport: name})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Play(stream); err != nil {
				w.Close()
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Close, %d before NewWall:\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestTransportConfigRejected covers the transport combinations New refuses.
func TestTransportConfigRejected(t *testing.T) {
	fab := cluster.New(3, cluster.Config{})
	defer fab.Shutdown()
	for _, tc := range []struct {
		name string
		cfg  service.Config
		want string
	}{
		{"name and injected", service.Config{K: 0, M: 2, N: 1, Transport: "fabric", Wiring: fab}, "exclusive"},
		{"tcp with local nodes", service.Config{K: 0, M: 2, N: 1, Transport: "tcp", LocalNodes: []int{0}}, "LocalNodes"},
		{"unknown name", service.Config{K: 0, M: 2, N: 1, Transport: "udp"}, "unknown transport"},
	} {
		w, err := service.New(tc.cfg)
		if err == nil {
			w.Close()
			t.Fatalf("%s: New accepted the config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
