package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// appendAll appends payloads and syncs, failing the test on any error.
func appendAll(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// collect replays the directory from after and returns the payloads.
func collect(t *testing.T, dir string, after uint64) ([][]byte, ReplayResult) {
	t.Helper()
	var got [][]byte
	res, err := Replay(dir, after, func(seq uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, res
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i)))
		want = append(want, p)
	}
	appendAll(t, l, want...)
	if got := l.Seq(); got != 100 {
		t.Fatalf("Seq = %d, want 100", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, res := collect(t, dir, 0)
	if res.Truncated {
		t.Fatalf("clean log reported truncated: %s", res.Reason)
	}
	if res.Records != 100 || res.LastSeq != 100 {
		t.Fatalf("ReplayResult = %+v, want 100 records ending at seq 100", res)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}

	// Reopen: recovery finds the same records and appends continue at
	// the next sequence number.
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Truncated || rec.Records != 100 {
		t.Fatalf("Recovery = %+v, want 100 records untruncated", rec)
	}
	seq, err := l2.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if seq != 101 {
		t.Fatalf("seq after reopen = %d, want 101", seq)
	}
}

func TestReplayAfterSkipsDeliveredRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, withSegmentBytes(1<<10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 200; i++ {
		appendAll(t, l, []byte(fmt.Sprintf("r%04d-%s", i, strings.Repeat("y", 40))))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, res := collect(t, dir, 150)
	if res.Records != 50 || res.LastSeq != 200 {
		t.Fatalf("ReplayResult = %+v, want 50 records ending at seq 200", res)
	}
	if string(got[0]) != "r0150-"+strings.Repeat("y", 40) {
		t.Fatalf("first replayed record = %q, want r0150-...", got[0])
	}
}

func TestRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, withSegmentBytes(1<<10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	payload := []byte(strings.Repeat("z", 100))
	for i := 0; i < 100; i++ {
		appendAll(t, l, payload)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	if err := l.PruneTo(50); err != nil {
		t.Fatalf("PruneTo: %v", err)
	}
	pruned, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments after prune: %v", err)
	}
	if len(pruned) >= len(segs) {
		t.Fatalf("PruneTo removed nothing: %d segments before, %d after", len(segs), len(pruned))
	}
	// Everything after seq 50 must still replay.
	got, res := collect(t, dir, 50)
	if res.Truncated {
		t.Fatalf("pruned log reported truncated: %s", res.Reason)
	}
	if len(got) != 50 || res.LastSeq != 100 {
		t.Fatalf("after prune: %d records, LastSeq %d; want 50 ending at 100", len(got), res.LastSeq)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, []byte("first"), []byte("second"), []byte("third"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := filepath.Join(dir, segmentName(0))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// Chop the last 3 bytes off the final record: a torn write.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen torn log: %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if !rec.Truncated || rec.Records != 2 || rec.TruncatedBytes == 0 {
		t.Fatalf("Recovery = %+v, want 2 records with a truncated tail", rec)
	}
	// The log must accept appends after the recovered prefix and the
	// result must replay as prefix + new record.
	if seq, err := l2.Append([]byte("fourth")); err != nil || seq != 3 {
		t.Fatalf("Append after torn recovery: seq=%d err=%v", seq, err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got, res := collect(t, dir, 0)
	if res.Truncated {
		t.Fatalf("recovered log still truncated on replay: %s", res.Reason)
	}
	want := [][]byte{[]byte("first"), []byte("second"), []byte("fourth")}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestZeroFilledTailIsNotRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, []byte("only"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a pre-allocated page surviving a crash: a zero-filled
	// tail. CRC32C("") == 0, so a naive decoder would read an endless
	// run of valid empty records here.
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatalf("write zeros: %v", err)
	}
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if !rec.Truncated || rec.Records != 1 || rec.TruncatedBytes != 4096 {
		t.Fatalf("Recovery = %+v, want 1 record and 4096 truncated bytes", rec)
	}
}

func TestMidLogCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, withSegmentBytes(1<<10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := []byte(strings.Repeat("q", 100))
	for i := 0; i < 60; i++ {
		appendAll(t, l, payload)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >=3 segments for this test, got %d (err %v)", len(segs), err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip one payload byte in the SECOND segment: everything from
	// that record on — including whole later segments — is
	// unreachable and must be dropped.
	victim := filepath.Join(dir, segs[1].name)
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	raw[headerSize+10] ^= 0xff
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatalf("write corrupted segment: %v", err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if !rec.Truncated || rec.DroppedSegments == 0 {
		t.Fatalf("Recovery = %+v, want truncation with dropped segments", rec)
	}
	if rec.Records != segs[1].start {
		t.Fatalf("recovered %d records, want the %d preceding the corrupt segment", rec.Records, segs[1].start)
	}
	// The recovered prefix replays cleanly and appends continue.
	if seq, err := l2.Append([]byte("resumed")); err != nil || seq != segs[1].start+1 {
		t.Fatalf("Append after mid-log recovery: seq=%d err=%v", seq, err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got, res := collect(t, dir, 0)
	if res.Truncated {
		t.Fatalf("recovered log still truncated: %s", res.Reason)
	}
	if uint64(len(got)) != segs[1].start+1 {
		t.Fatalf("replayed %d records, want %d", len(got), segs[1].start+1)
	}
}

func TestSegmentGapStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, withSegmentBytes(1<<10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := []byte(strings.Repeat("g", 100))
	for i := 0; i < 60; i++ {
		appendAll(t, l, payload)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d (err %v)", len(segs), err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatalf("remove middle segment: %v", err)
	}
	_, res := collect(t, dir, 0)
	if !res.Truncated || res.LastSeq != segs[1].start {
		t.Fatalf("ReplayResult = %+v, want truncation at seq %d", res, segs[1].start)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with gap: %v", err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if !rec.Truncated || rec.Records != segs[1].start || rec.DroppedSegments == 0 {
		t.Fatalf("Recovery = %+v, want %d records and dropped segments", rec, segs[1].start)
	}
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded, want error")
	}
	if _, err := l.Append(make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("oversized Append succeeded, want error")
	}
	if seq := l.Seq(); seq != 0 {
		t.Fatalf("rejected appends advanced seq to %d", seq)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"segment too small", withSegmentBytes(512)},
		{"unknown policy", WithSyncPolicy(SyncPolicy(9))},
	}
	for _, tc := range cases {
		if _, err := Open(t.TempDir(), tc.opt); err == nil {
			t.Errorf("%s: Open succeeded, want validation error", tc.name)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncBatch, SyncAlways, SyncOS} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncBatch, SyncAlways, SyncOS} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, WithSyncPolicy(p))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendAll(t, l, []byte("a"), []byte("b"))
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			got, _ := collect(t, dir, 0)
			if len(got) != 2 {
				t.Fatalf("replayed %d records, want 2", len(got))
			}
		})
	}
}

func TestConcurrentAppendSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, withSegmentBytes(1<<10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const (
		writers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d-%s", w, i, strings.Repeat("c", 30)))); err != nil {
					errs <- err
					return
				}
				if err := l.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, res := collect(t, dir, 0)
	if res.Truncated || len(got) != writers*each {
		t.Fatalf("replayed %d records (truncated=%v), want %d", len(got), res.Truncated, writers*each)
	}
}

func TestClosedLogFailsFast(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, []byte("x"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append([]byte("y")); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync on closed log succeeded")
	}
	if l.Err() == nil {
		t.Fatal("closed log has nil Err")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := LatestSnapshot(dir); err != nil || ok {
		t.Fatalf("LatestSnapshot on empty dir = ok=%v err=%v, want none", ok, err)
	}
	if err := WriteSnapshot(dir, 10, []byte("state-at-10")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := WriteSnapshot(dir, 20, []byte("state-at-20")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := WriteSnapshot(dir, 30, []byte("state-at-30")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	seq, payload, ok, err := LatestSnapshot(dir)
	if err != nil || !ok || seq != 30 || string(payload) != "state-at-30" {
		t.Fatalf("LatestSnapshot = %d %q ok=%v err=%v, want 30 state-at-30", seq, payload, ok, err)
	}
	// Only the newest two snapshots survive.
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("kept %d snapshots (err %v), want 2", len(snaps), err)
	}
	if err := WriteSnapshot(dir, 40, nil); err == nil {
		t.Fatal("WriteSnapshot accepted an empty payload")
	}
}

func TestLatestSnapshotSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 10, []byte("good-old")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := WriteSnapshot(dir, 20, []byte("doomed-new")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	newest := filepath.Join(dir, snapshotName(20))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}
	seq, payload, ok, err := LatestSnapshot(dir)
	if err != nil || !ok || seq != 10 || string(payload) != "good-old" {
		t.Fatalf("LatestSnapshot = %d %q ok=%v err=%v, want fallback to 10", seq, payload, ok, err)
	}
	// A torn (too short) snapshot is equally unusable.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(30)), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatalf("write torn snapshot: %v", err)
	}
	seq, _, ok, err = LatestSnapshot(dir)
	if err != nil || !ok || seq != 10 {
		t.Fatalf("LatestSnapshot with torn newest = %d ok=%v err=%v, want 10", seq, ok, err)
	}
}

func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "wal-zzzz.log", "wal-00.log", "snap-xyz.snap", "wal-0000000000000000.log.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatalf("write stray file: %v", err)
		}
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with stray files: %v", err)
	}
	defer l.Close()
	appendAll(t, l, []byte("real"))
	got, res := collect(t, dir, 0)
	if res.Truncated || len(got) != 1 {
		t.Fatalf("replay with stray files: %d records truncated=%v", len(got), res.Truncated)
	}
}
