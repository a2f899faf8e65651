package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestHashDeterministic(t *testing.T) {
	line := []byte("ts=2012-03-20T17:44:31.331549Z event=stampede.job.mainjob.start xwf.id=aaaa job.id=create_dir")
	a := hashLine(line)
	b := hashLine(append([]byte(nil), line...)) // fresh copy, same bytes
	if a != b {
		t.Fatalf("hashLine not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("hashLine returned reserved id 0")
	}
	if c := hashLine([]byte("different line")); c == a {
		t.Fatalf("distinct lines collided: %x", c)
	}
}

func TestHashZeroRemapped(t *testing.T) {
	if hashLine(nil) == 0 {
		t.Fatal("empty input hashed to reserved 0")
	}
}

func TestSampleRate(t *testing.T) {
	defer SetSampleEvery(DefaultSampleEvery)

	SetSampleEvery(0)
	if Enabled() {
		t.Fatal("Enabled() true with rate 0")
	}
	if id := Sample([]byte("anything")); id != 0 {
		t.Fatalf("Sample returned %x with tracing off", id)
	}

	SetSampleEvery(1)
	if !Enabled() {
		t.Fatal("Enabled() false with rate 1")
	}
	line := []byte("ts=2012-03-20T17:44:31Z event=x")
	id := Sample(line)
	if id == 0 {
		t.Fatal("rate 1 must sample every line")
	}
	if id != hashLine(line) {
		t.Fatal("sampled id is not the line hash")
	}
	// Same line, same decision and id: the cross-process assembly invariant.
	if again := Sample(line); again != id {
		t.Fatalf("same line sampled differently: %x vs %x", again, id)
	}

	SetSampleEvery(-5)
	if Enabled() {
		t.Fatal("negative rate should disable tracing")
	}
}

func TestSampleSelectivity(t *testing.T) {
	defer SetSampleEvery(DefaultSampleEvery)
	SetSampleEvery(64)
	sampled := 0
	var buf bytes.Buffer
	for i := 0; i < 4096; i++ {
		buf.Reset()
		buf.WriteString("ts=2012-03-20T17:44:31Z event=stampede.job.mainjob.start job.id=j")
		for v := i; ; v /= 10 {
			buf.WriteByte(byte('0' + v%10))
			if v < 10 {
				break
			}
		}
		if Sample(buf.Bytes()) != 0 {
			sampled++
		}
	}
	// Expected 64 of 4096; allow generous slack for hash variance.
	if sampled < 16 || sampled > 256 {
		t.Fatalf("sampled %d of 4096 lines at rate 1/64; want roughly 64", sampled)
	}
}

// TestSampleDependsOnEveryByte: lines that differ only away from the
// offsets the 8-byte fold lands on (0, 8, 16, …) must not share one
// sampling decision. Among 4,096 lines that differ only in bytes 12 and 13,
// between 1/128 and 1/32 are sampled at rate 1/64, and the 256 values of
// byte 13 alone are neither all sampled nor all passed over.
func TestSampleDependsOnEveryByte(t *testing.T) {
	defer SetSampleEvery(DefaultSampleEvery)
	SetSampleEvery(64)
	line := []byte("ts=2012-03-20T17:44:31Z event=stampede.job.mainjob.start job.id=j1")
	sampled := 0
	for i := 0; i < 4096; i++ {
		line[12], line[13] = byte(i>>6), byte(i&63)
		if Sample(line) != 0 {
			sampled++
		}
	}
	if sampled < 4096/128 || sampled > 4096/32 {
		t.Errorf("sampled %d of 4096 lines differing in bytes 12-13 at rate 1/64; want 32..128", sampled)
	}
	line[12], sampled = '0', 0
	for b := 0; b < 256; b++ {
		line[13] = byte(b)
		if Sample(line) != 0 {
			sampled++
		}
	}
	if sampled == 0 || sampled == 256 {
		t.Errorf("the 256 values of byte 13 share one decision (%d sampled)", sampled)
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageEmit: "emit", StageRoute: "route", StageParse: "parse",
		StageQueue: "queue", StageApply: "apply",
		StageCommit: "commit", StageDropped: "dropped",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), name)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage: %q", Stage(200).String())
	}
}

func TestEmitClampsFutureTimestamps(t *testing.T) {
	defer SetSampleEvery(DefaultSampleEvery)
	SetSampleEvery(1)
	line := []byte("ts=2999-01-01T00:00:00Z event=future")
	id := hashLine(line)
	Emit(line, time.Now().Add(time.Hour), "wf-future")
	for _, sp := range Default().Spans() {
		if sp.ID == id && sp.Stage == StageEmit {
			if sp.End-sp.Start != 0 {
				t.Fatalf("future ts not clamped: span %d ns", sp.End-sp.Start)
			}
			return
		}
	}
	t.Fatal("emit span not recorded")
}

func TestNameTableRoundTrip(t *testing.T) {
	idx := nameIdx("some-workflow-uuid")
	if idx == 0 {
		t.Fatal("non-empty label interned at reserved index 0")
	}
	if nameIdx("some-workflow-uuid") != idx {
		t.Fatal("re-interning changed the index")
	}
	if got := nameAt(idx); got != "some-workflow-uuid" {
		t.Fatalf("nameAt(%d) = %q", idx, got)
	}
	if nameAt(1<<30) != "" {
		t.Fatal("out-of-range index did not collapse to empty")
	}
}

// TestNameTableScales pins the span-label table: a new label costs O(1)
// (the copy-on-write table this replaces copied every earlier label,
// ~190 MB for these 4,000), a hit allocates nothing, a label and its index
// round-trip while other goroutines insert, and once the table is full a
// lookup needs the read lock only.
func TestNameTableScales(t *testing.T) {
	// The table is process-global: run on an empty one, restore after.
	names.mu.Lock()
	savedName, savedIdx := names.byName, names.byIdx
	names.byName, names.byIdx = map[string]uint32{"": 0}, []string{""}
	names.mu.Unlock()
	t.Cleanup(func() {
		names.mu.Lock()
		names.byName, names.byIdx = savedName, savedIdx
		names.mu.Unlock()
	})

	labels := make([]string, maxNames)
	for i := range labels {
		labels[i] = fmt.Sprintf("wf-name-%05d", i)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, l := range labels[:4000] {
		nameIdx(l)
	}
	runtime.ReadMemStats(&ms1)
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 2<<20 {
		t.Fatalf("interning 4,000 labels allocated %d bytes, want under 2 MiB", got)
	}
	if n := testing.AllocsPerRun(1000, func() { nameIdx(labels[17]) }); n != 0 {
		t.Fatalf("a hit allocates %v times, want 0", n)
	}
	if nameIdx("") != 0 || nameAt(0) != "" {
		t.Fatal("the empty label is not index 0")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 4000 + g; i < 12000; i += 4 {
				if got := nameAt(nameIdx(labels[i])); got != labels[i] {
					t.Errorf("nameAt(nameIdx(%q)) = %q", labels[i], got)
					return
				}
				if old := labels[i%4000]; nameAt(nameIdx(old)) != old {
					t.Errorf("label %q moved while others were inserted", old)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for _, l := range labels[12000:] {
		nameIdx(l)
	}
	if nameIdx(labels[17]) == 0 {
		t.Fatal("an interned label lost its index at the cap")
	}
	// With the read lock held here, a lookup that wanted the write lock
	// would wait for it and never report back.
	names.mu.RLock()
	over := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			ok := true
			for i := 0; i < 1000; i++ {
				ok = ok && nameIdx(fmt.Sprintf("wf-over-%d-%d", g, i)) == 0
			}
			over <- ok
		}(g)
	}
	for g := 0; g < 4; g++ {
		select {
		case ok := <-over:
			if !ok {
				t.Error("an unseen label at the cap got an index")
			}
		case <-time.After(5 * time.Second):
			names.mu.RUnlock()
			t.Fatal("an over-cap lookup blocked behind a reader: it took the write lock")
		}
	}
	names.mu.RUnlock()
	if n := testing.AllocsPerRun(1000, func() { nameIdx("wf-over-the-cap") }); n != 0 {
		t.Fatalf("an over-cap lookup allocates %v times, want 0", n)
	}
}
