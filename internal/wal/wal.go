// Package wal is the durability layer under dfserve's monitor registry:
// an append-only, CRC32C-framed, length-prefixed record log with segment
// rotation, a configurable fsync policy, and atomic point-in-time
// snapshots. The ROADMAP's crash-tolerance target — kill -9 a node
// mid-ingest and lose nothing that was acknowledged — reduces to two
// contracts this package owns:
//
//   - Append+Sync before acknowledge: a record covered by a successful
//     Sync (or appended under SyncAlways) survives a crash of the
//     process and, policy permitting, of the machine.
//   - Paranoid recovery: Open scans every segment, truncates the log at
//     the first torn or corrupt record, discards unreachable later
//     segments, and never panics on arbitrary bytes. What remains is
//     exactly the longest valid prefix, and appends continue after it.
//
// Framing: each record is [u32 payload length][u32 CRC32C(payload)]
// [payload], little-endian, with a zero length treated as corruption so
// a zero-filled torn tail (sparse files, pre-allocated pages) can never
// decode as an endless run of empty records. Records are addressed by a
// 1-based sequence number that is global across segments; segment files
// are named wal-<start>.log where <start> is the number of records
// preceding the segment, so replay can order and prune them from names
// alone.
//
// The fsync policy trades durability for append latency:
//
//   - SyncAlways: fsync after every Append — no acknowledged record is
//     ever lost, at one fsync per record.
//   - SyncBatch (default): Append only writes; callers fsync via Sync
//     before acknowledging. Concurrent committers coalesce: one fsync
//     covers every record appended before it, so the cost amortizes
//     over the commit group.
//   - SyncOS: never fsync; records reach the OS page cache on write and
//     survive process crashes (kill -9) but not machine crashes.
//
// Transient fsync and rotation failures are retried with bounded
// exponential backoff; exhausting the retries marks
// the log permanently failed, after which every Append/Sync fails fast
// so the caller can fail into a degraded read-only mode instead of
// silently dropping acknowledged writes.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	// headerSize frames every record: u32 payload length + u32 CRC32C.
	headerSize = 8

	// segmentPrefix/segmentSuffix name segment files wal-%016x.log.
	segmentPrefix = "wal-"
	segmentSuffix = ".log"

	defaultSegmentBytes = 64 << 20

	// maxRecordBytes is the largest accepted payload; oversized appends
	// are rejected before touching the disk.
	maxRecordBytes = 16 << 20

	// retryAttempts and retryBase bound the exponential backoff applied
	// to transient fsync/rotation errors: up to retryAttempts retries
	// sleeping retryBase, 2·retryBase, 4·retryBase, …
	retryAttempts = 4
	retryBase     = time.Millisecond

	// maxBackoff caps one backoff sleep regardless of attempt count.
	maxBackoff = 500 * time.Millisecond
)

// castagnoli is the CRC32C polynomial table shared by all framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are fsynced. The zero value
// is SyncBatch, the serving default.
type SyncPolicy uint8

const (
	// SyncBatch defers fsync to explicit Sync calls, which coalesce
	// across concurrent committers (group commit).
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every Append.
	SyncAlways
	// SyncOS never fsyncs: writes reach the OS page cache only.
	SyncOS
)

// ParseSyncPolicy parses the flag spelling of a policy: "batch",
// "always" or "os".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "os":
		return SyncOS, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, batch or os)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncOS:
		return "os"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

type options struct {
	segmentBytes int64
	policy       SyncPolicy
}

// Option configures Open. Every option validates its arguments at
// construction so a misconfigured log fails at the call site.
type Option func(*options) error

// withSegmentBytes sets the rotation threshold: a segment is closed once
// appending the next record would push it past n bytes. n must be at
// least 1 KiB (a zero or tiny threshold would rotate on every record).
// Tests use it to exercise rotation without writing 64 MiB segments.
func withSegmentBytes(n int64) Option {
	return func(o *options) error {
		if n < 1<<10 {
			return fmt.Errorf("wal: withSegmentBytes(%d): segment size must be at least %d bytes", n, 1<<10)
		}
		o.segmentBytes = n
		return nil
	}
}

// WithSyncPolicy sets the fsync policy.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *options) error {
		if p > SyncOS {
			return fmt.Errorf("wal: WithSyncPolicy(%d): unknown policy", uint8(p))
		}
		o.policy = p
		return nil
	}
}

// segInfo is one on-disk segment: its filename and the number of
// records preceding it.
type segInfo struct {
	start uint64
	name  string
}

// RecoveryInfo reports what Open had to discard to restore a consistent
// log: the bytes truncated off a torn tail and any unreachable segments
// dropped after the corruption point.
type RecoveryInfo struct {
	// Records is the number of valid records the recovered log holds.
	Records uint64
	// Truncated reports whether any bytes were discarded.
	Truncated bool
	// TruncatedBytes counts the discarded tail bytes of the segment the
	// corruption was found in.
	TruncatedBytes int64
	// DroppedSegments counts whole later segments discarded because a
	// corrupt record made them unreachable.
	DroppedSegments int
	// Reason describes the first corruption encountered, empty when the
	// log was clean.
	Reason string
}

// Log is an append-only record log over one directory. All methods are
// safe for concurrent use.
type Log struct {
	dir string
	opt options

	mu     sync.Mutex
	f      *os.File // active segment, append-only
	size   int64    // active segment size in bytes
	seq    uint64   // records appended over the log's lifetime
	synced uint64   // highest seq covered by an fsync
	segs   []segInfo
	buf    []byte // frame scratch, reused across appends
	err    error  // sticky permanent failure
	rec    RecoveryInfo
}

// Open opens (creating if necessary) the log in dir and recovers it:
// every segment is scanned in order, the log is truncated at the first
// torn or corrupt record, and unreachable later segments are removed.
// Appends continue after the recovered prefix.
func Open(dir string, opts ...Option) (*Log, error) {
	o := options{
		segmentBytes: defaultSegmentBytes,
		policy:       SyncBatch,
	}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opt: o}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// recover scans the directory, truncates at the first corruption, and
// opens the last surviving segment for appending.
func (l *Log) recover() error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		f, err := createSegment(l.dir, 0)
		if err != nil {
			return err
		}
		l.f = f
		l.segs = []segInfo{{start: 0, name: segmentName(0)}}
		return syncDir(l.dir)
	}

	expected := segs[0].start
	var lastValid int64
	kept := 0
	for i, s := range segs {
		if s.start != expected {
			// A gap in the record numbering: everything from this
			// segment on is unreachable from the valid prefix.
			l.rec.Truncated = true
			l.rec.Reason = fmt.Sprintf("segment %s starts at record %d, want %d", s.name, s.start, expected)
			break
		}
		path := filepath.Join(l.dir, s.name)
		n, valid, reason, err := scanSegment(path, s.start, 0, nil)
		if err != nil {
			return err
		}
		expected = s.start + n
		lastValid = valid
		kept = i + 1
		if reason != "" {
			info, statErr := os.Stat(path)
			if statErr == nil {
				l.rec.TruncatedBytes = info.Size() - valid
			}
			if err := os.Truncate(path, valid); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", s.name, err)
			}
			l.rec.Truncated = true
			l.rec.Reason = reason
			break
		}
	}
	if kept == 0 {
		// The very first segment is misnamed relative to itself — can
		// only happen with a hand-damaged directory. Start fresh after
		// it; the damaged files are renamed out of the segment
		// namespace rather than deleted.
		return fmt.Errorf("wal: unrecoverable segment chain in %s: %s", l.dir, l.rec.Reason)
	}
	for _, s := range segs[kept:] {
		if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
			return fmt.Errorf("wal: removing unreachable segment %s: %w", s.name, err)
		}
		l.rec.DroppedSegments++
	}
	l.segs = segs[:kept]
	l.seq = expected
	l.synced = expected
	l.rec.Records = expected - segs[0].start
	l.size = lastValid

	last := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(filepath.Join(l.dir, last.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening active segment: %w", err)
	}
	l.f = f
	if l.rec.Truncated {
		return syncDir(l.dir)
	}
	return nil
}

// Recovery reports what Open discarded to restore consistency.
func (l *Log) Recovery() RecoveryInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec
}

// Seq returns the sequence number of the last appended record (the
// number of records ever appended, including recovered ones).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Append frames and writes one record, returning its sequence number.
// Under SyncAlways the record is fsynced before Append returns; under
// SyncBatch the caller must Sync before treating it as durable. An
// empty or oversized payload is rejected without touching the disk.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if len(payload) == 0 {
		return 0, fmt.Errorf("wal: empty record")
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	frame := int64(headerSize + len(payload))
	if l.size > 0 && l.size+frame > l.opt.segmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	l.buf = l.buf[:0]
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(len(payload)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.Checksum(payload, castagnoli))
	l.buf = append(l.buf, payload...)
	if _, err := l.f.Write(l.buf); err != nil {
		// A partial frame on disk would corrupt every later record, so
		// roll the file back to the record boundary; if even that
		// fails the log is permanently damaged.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.failLocked(fmt.Errorf("wal: write failed (%v) and rollback failed: %w", err, terr))
			return 0, l.err
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += frame
	l.seq++
	if l.opt.policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return l.seq, nil
}

// Sync makes every record appended so far durable. Under SyncOS it is a
// no-op; otherwise concurrent callers coalesce — whoever syncs first
// covers everyone appended before them, and the rest return without
// touching the disk.
func (l *Log) Sync() error {
	if l.opt.policy == SyncOS {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

// syncLocked fsyncs the active segment with bounded backoff. l.mu held.
func (l *Log) syncLocked() error {
	if l.synced >= l.seq {
		return nil
	}
	if err := l.retry("fsync", l.f.Sync); err != nil {
		return err
	}
	l.synced = l.seq
	return nil
}

// rotateLocked closes the active segment and opens the next one. The
// old segment is fsynced first (except under SyncOS) so rotation never
// strands unsynced records in a closed file. l.mu held.
func (l *Log) rotateLocked() error {
	if l.opt.policy != SyncOS {
		if err := l.retry("fsync before rotation", l.f.Sync); err != nil {
			return err
		}
		l.synced = l.seq
	}
	if err := l.f.Close(); err != nil {
		l.failLocked(fmt.Errorf("wal: closing rotated segment: %w", err))
		return l.err
	}
	var f *os.File
	err := l.retry("rotation", func() error {
		var err error
		f, err = createSegment(l.dir, l.seq)
		return err
	})
	if err != nil {
		return err
	}
	if l.opt.policy != SyncOS {
		if err := l.retry("fsync directory after rotation", func() error { return syncDir(l.dir) }); err != nil {
			return err
		}
	}
	l.f = f
	l.size = 0
	l.segs = append(l.segs, segInfo{start: l.seq, name: segmentName(l.seq)})
	return nil
}

// retry runs op with bounded exponential backoff; exhausting the
// attempts marks the log permanently failed.
func (l *Log) retry(what string, op func() error) error {
	var err error
	for attempt := 0; attempt <= retryAttempts; attempt++ {
		if attempt > 0 {
			backoff := retryBase << (attempt - 1)
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			time.Sleep(backoff)
		}
		if err = op(); err == nil {
			return nil
		}
	}
	l.failLocked(fmt.Errorf("wal: %s failed after %d attempts: %w", what, retryAttempts+1, err))
	return l.err
}

// failLocked records a permanent failure; all later Append/Sync calls
// fail fast with it so the caller can degrade instead of diverging.
func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
}

// Err returns the sticky permanent failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// PruneTo removes whole segments whose records all have sequence
// numbers <= seq (they are covered by a snapshot). The active segment
// is never removed.
func (l *Log) PruneTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	pruned := false
	for len(l.segs) >= 2 && l.segs[1].start <= seq {
		if err := os.Remove(filepath.Join(l.dir, l.segs[0].name)); err != nil {
			return fmt.Errorf("wal: pruning %s: %w", l.segs[0].name, err)
		}
		l.segs = l.segs[1:]
		pruned = true
	}
	if pruned {
		return syncDir(l.dir)
	}
	return nil
}

// Close fsyncs (regardless of policy — a clean shutdown should leave a
// durable log) and closes the active segment. The log is unusable
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	var firstErr error
	if l.err == nil && l.synced < l.seq {
		if err := l.f.Sync(); err != nil {
			firstErr = fmt.Errorf("wal: close sync: %w", err)
		} else {
			l.synced = l.seq
		}
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("wal: close: %w", err)
	}
	l.f = nil
	l.failLocked(fmt.Errorf("wal: log closed"))
	return firstErr
}

// segmentName renders the canonical name of the segment starting after
// record start.
func segmentName(start uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, start, segmentSuffix)
}

// createSegment creates a fresh segment file; it must not already
// exist.
func createSegment(dir string, start uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(start)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment: %w", err)
	}
	return f, nil
}

// syncDir fsyncs a directory so renames, creates and removes inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	return nil
}
