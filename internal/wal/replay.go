package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// maxScanRecord bounds a single record during recovery and replay,
// independently of the append limit maxRecordBytes: a log written under
// a larger limit must still recover, and a corrupt length field must
// never drive a multi-gigabyte allocation.
const maxScanRecord = 1 << 30

// ReplayResult summarizes a read-only Replay pass.
type ReplayResult struct {
	// Records is the number of records delivered to the callback.
	Records uint64
	// LastSeq is the sequence number of the last valid record seen (0
	// when the log is empty).
	LastSeq uint64
	// Truncated reports whether the scan stopped at a torn or corrupt
	// record instead of a clean end of log.
	Truncated bool
	// Reason describes the corruption when Truncated is set.
	Reason string
}

// Replay streams every record with sequence number greater than after
// to fn, in order, without modifying the log — it is safe on a
// directory another process is serving from, and it is the read path
// dfserve uses when the data dir is not writable. Scanning stops at the
// first torn or corrupt record (reported in the result, not as an
// error). A non-nil error from fn aborts the replay and is returned.
func Replay(dir string, after uint64, fn func(seq uint64, payload []byte) error) (ReplayResult, error) {
	var res ReplayResult
	segs, err := listSegments(dir)
	if err != nil {
		return res, err
	}
	expected := uint64(0)
	if len(segs) > 0 {
		expected = segs[0].start
	}
	res.LastSeq = expected
	for i, s := range segs {
		if s.start != expected {
			res.Truncated = true
			res.Reason = fmt.Sprintf("segment %s starts at record %d, want %d", s.name, s.start, expected)
			return res, nil
		}
		// A later segment's start seq proves every record in this one
		// is below it, so segments entirely covered by after are
		// skipped without reading them.
		if i+1 < len(segs) && segs[i+1].start <= after {
			expected = segs[i+1].start
			res.LastSeq = expected
			continue
		}
		n, _, reason, err := scanSegment(filepath.Join(dir, s.name), s.start, after, func(seq uint64, payload []byte) error {
			res.Records++
			return fn(seq, payload)
		})
		if err != nil {
			return res, err
		}
		expected = s.start + n
		res.LastSeq = expected
		if reason != "" {
			res.Truncated = true
			res.Reason = reason
			return res, nil
		}
	}
	return res, nil
}

// scanSegment reads one segment sequentially, verifying every frame.
// Records with sequence numbers greater than after are passed to fn
// (which may be nil). It returns the number of valid records in the
// segment, the byte offset just past the last valid record, and a
// non-empty reason when the scan stopped at a torn or corrupt record.
// The returned error is reserved for real I/O failures and callback
// errors; corruption is data, not an error.
func scanSegment(path string, startSeq, after uint64, fn func(seq uint64, payload []byte) error) (records uint64, validEnd int64, reason string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, "", fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, "", fmt.Errorf("wal: stat segment: %w", err)
	}
	size := info.Size()

	br := bufio.NewReaderSize(f, 1<<16)
	var (
		header  [headerSize]byte
		payload []byte
		offset  int64
	)
	for {
		if size-offset == 0 {
			return records, offset, "", nil
		}
		if size-offset < headerSize {
			return records, offset, fmt.Sprintf("%s: torn header at offset %d", filepath.Base(path), offset), nil
		}
		if _, err := io.ReadFull(br, header[:]); err != nil {
			return 0, 0, "", fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		want := binary.LittleEndian.Uint32(header[4:8])
		// length == 0 is corruption by construction (Append rejects
		// empty payloads); treating it as valid would let a zero-filled
		// torn tail decode as an endless run of empty records.
		if length == 0 || length > maxScanRecord {
			return records, offset, fmt.Sprintf("%s: invalid record length %d at offset %d", filepath.Base(path), length, offset), nil
		}
		if int64(length) > size-offset-headerSize {
			return records, offset, fmt.Sprintf("%s: torn record at offset %d (%d payload bytes declared, %d on disk)", filepath.Base(path), offset, length, size-offset-headerSize), nil
		}
		if int(length) > cap(payload) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return 0, 0, "", fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return records, offset, fmt.Sprintf("%s: checksum mismatch at offset %d", filepath.Base(path), offset), nil
		}
		offset += headerSize + int64(length)
		records++
		seq := startSeq + records
		if fn != nil && seq > after {
			if err := fn(seq, payload); err != nil {
				return 0, 0, "", err
			}
		}
	}
}

// listSegments returns the directory's segment files ordered by start
// sequence. Files outside the wal-<hex16>.log namespace are ignored;
// duplicate start sequences are an error (they cannot both be right).
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	segs := make([]segInfo, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		start, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segInfo{start: start, name: e.Name()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	for i := 1; i < len(segs); i++ {
		if segs[i].start == segs[i-1].start {
			return nil, fmt.Errorf("wal: segments %s and %s share start record %d", segs[i-1].name, segs[i].name, segs[i].start)
		}
	}
	return segs, nil
}

// parseSegmentName extracts the start sequence from wal-<hex16>.log.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	start, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return start, true
}
