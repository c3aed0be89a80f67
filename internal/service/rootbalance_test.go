package service_test

import (
	"sync"
	"testing"
	"time"

	"tiledwall/internal/bits"
	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
)

// pictureStream builds a synthetic elementary stream: a real sequence
// header (16x16, one macroblock) followed by bare picture units with the
// given payload sizes. The filler carries no start codes, so the root's scan
// sees exactly len(sizes) pictures.
func pictureStream(sizes []int) []byte {
	seq := &mpeg2.SequenceHeader{
		Width: 16, Height: 16,
		AspectRatio: 1, FrameRateCode: 5, BitRate: 10000, VBVBufferSize: 112,
		ChromaFormat: 1, Progressive: true,
		IntraQ: mpeg2.DefaultIntraQuantMatrix, NonIntraQ: mpeg2.DefaultNonIntraQuantMatrix,
	}
	w := bits.NewWriter(64)
	seq.Write(w)
	out := append([]byte(nil), w.Bytes()...)
	for _, size := range sizes {
		out = append(out, 0, 0, 1, 0) // picture start code
		for j := 0; j < size; j++ {
			out = append(out, 0xAA)
		}
	}
	return out
}

// stubRecord is one picture observed by a stub splitter: its sequence
// number, the NSID that rode along, and its payload size.
type stubRecord struct {
	seq, nsid, size int
}

// runRootWithStubs drives the production root of a 1-k-(1,1) wall — only
// node 0 is local, over an injected fabric — against stub second-level
// splitters whose only behaviour is the protocol's: consume a picture, stay
// busy for a time proportional to its size, then ack. On the session final
// each stub returns its drain ack (stub 0 also the decoder's). Returns each
// stub's observation log.
func runRootWithStubs(t *testing.T, stream []byte, k int, dynamic bool) [][]stubRecord {
	t.Helper()
	cfg := service.Config{K: k, M: 1, N: 1, DynamicBalance: dynamic, LocalNodes: []int{0}}
	fab := cluster.New(cfg.NumNodes(), cluster.Config{StallTimeout: 30 * time.Second})
	defer fab.Shutdown()
	cfg.Wiring = fab
	decoder := fab.Node(1 + k)
	logs := make([][]stubRecord, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		node := fab.Node(1 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m := node.Recv(cluster.MsgPicture)
				switch {
				case m == nil || m.Flags&cluster.FlagShutdown != 0:
					return
				case m.Flags&cluster.FlagSessionFinal != 0:
					drain := cluster.Message{Kind: cluster.MsgAck, Seq: cluster.DrainAckSeq, Session: m.Session}
					d := drain
					node.Send(0, &d)
					if i == 0 {
						decoder.Send(0, &drain)
					}
				case m.Flags&(cluster.FlagSessionOpen|cluster.FlagSubscribe) != 0:
				default:
					logs[i] = append(logs[i], stubRecord{seq: m.Seq, nsid: m.Tag, size: len(m.Payload)})
					// Busy time scales with picture size; the ack returns the
					// posted buffer only once the stub is free again, which is
					// the signal the credit-based chooser reads. 2 µs/byte keeps
					// even a light picture's busy time well above the root's
					// own per-picture cost under the race detector.
					time.Sleep(time.Duration(len(m.Payload)) * 2 * time.Microsecond)
					node.Send(0, &cluster.Message{Kind: cluster.MsgAck, Seq: m.Seq, Session: m.Session})
				}
			}
		}()
	}
	w, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Play(stream)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	wantPics := 0
	for i := range logs {
		wantPics += len(logs[i])
	}
	if res.Root.Pictures != wantPics {
		t.Fatalf("root reports %d pictures, stubs saw %d", res.Root.Pictures, wantPics)
	}
	return logs
}

// loadOf reduces a run's logs to per-stub picture counts and byte loads.
func loadOf(logs [][]stubRecord) (counts []int, bytes []int) {
	counts, bytes = make([]int, len(logs)), make([]int, len(logs))
	for i, l := range logs {
		for _, r := range l {
			counts[i]++
			bytes[i] += r.size
		}
	}
	return
}

// TestDynamicBalanceSkewedLoad pins the point of credit-based selection
// under the skew that actually hurts round-robin: heavy intra-coded
// pictures recurring at the round-robin period itself (every k-th picture
// is ~64x the size of the rest — a GOP structure resonating with the
// splitter count), so strict round-robin funnels every heavy picture to
// splitter 0. The dynamic chooser sees that splitter's credits pinned at
// zero while it chews and routes pictures to whoever has free buffers: the
// busiest splitter ends up with both far fewer bytes and fewer pictures
// than its round-robin share. (The NSID protocol fixes each assignee one
// picture ahead of its send, so the chooser needs k >= 3 for a credit
// difference to be visible at decision time — with k = 2 a drained window
// ties both splitters and the chooser correctly degrades to round-robin.)
func TestDynamicBalanceSkewedLoad(t *testing.T) {
	const (
		pics = 24
		k    = 3
	)
	sizes := make([]int, pics)
	for i := range sizes {
		sizes[i] = 256
		if i%k == 0 {
			sizes[i] = 16384
		}
	}
	stream := pictureStream(sizes)

	rr := runRootWithStubs(t, stream, k, false)
	rrCounts, rrBytes := loadOf(rr)
	// Round-robin is deterministic: stub 0 takes every k-th picture,
	// including the heavy one.
	for i, c := range rrCounts {
		if c != pics/k {
			t.Fatalf("round-robin counts %v, want an even split of %d each (stub %d)", rrCounts, pics/k, i)
		}
	}
	rrMax := 0
	for _, b := range rrBytes {
		if b > rrMax {
			rrMax = b
		}
	}

	dyn := runRootWithStubs(t, stream, k, true)
	dynCounts, dynBytes := loadOf(dyn)
	busiest := 0
	for i, b := range dynBytes {
		if b > dynBytes[busiest] {
			busiest = i
		}
	}
	if dynBytes[busiest] >= rrMax {
		t.Fatalf("dynamic busiest splitter carries %dB, not below round-robin's %dB (dynamic loads %v)",
			dynBytes[busiest], rrMax, dynBytes)
	}
	// The splitter stuck with the heavy picture must end up with fewer
	// pictures than its round-robin share — least-loaded assignment means
	// the light pictures flow to the free splitters instead of queueing
	// behind the heavy one.
	if dynCounts[busiest] >= pics/k {
		t.Fatalf("dynamic busiest splitter still got %d of %d pictures (counts %v, bytes %v)",
			dynCounts[busiest], pics, dynCounts, dynBytes)
	}
	for i, c := range dynCounts {
		if c == 0 {
			t.Fatalf("dynamic starved splitter %d (counts %v)", i, dynCounts)
		}
	}
}

// TestDynamicBalanceNSID verifies the ordering protocol under dynamic
// assignment: the NSID riding along with picture p must name the node that
// actually received picture p+1, for every picture — that is the invariant
// the decoders' ANID redirect (and so display order) rests on.
func TestDynamicBalanceNSID(t *testing.T) {
	const pics = 20
	sizes := make([]int, pics)
	for i := range sizes {
		sizes[i] = 128
		if i%2 == 0 {
			sizes[i] = 4096
		}
	}
	stream := pictureStream(sizes)
	for _, dynamic := range []bool{false, true} {
		logs := runRootWithStubs(t, stream, 3, dynamic)
		assignee := make(map[int]int, pics) // seq -> node id
		nsid := make(map[int]int, pics)     // seq -> announced next node id
		for i, l := range logs {
			for _, r := range l {
				if _, dup := assignee[r.seq]; dup {
					t.Fatalf("dynamic=%v: picture %d delivered twice", dynamic, r.seq)
				}
				assignee[r.seq] = 1 + i
				nsid[r.seq] = r.nsid
			}
		}
		if len(assignee) != pics {
			t.Fatalf("dynamic=%v: %d of %d pictures delivered", dynamic, len(assignee), pics)
		}
		for seq := 0; seq < pics-1; seq++ {
			if nsid[seq] != assignee[seq+1] {
				t.Fatalf("dynamic=%v: picture %d announced NSID %d but picture %d went to node %d",
					dynamic, seq, nsid[seq], seq+1, assignee[seq+1])
			}
		}
	}
}
