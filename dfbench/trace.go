package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one timed call at a layer boundary. Spans live in memory until
// the run ends and are written out once.
type span struct {
	name       string
	start, end int64 // ns since the run's epoch
	parent     int   // index of the parent span in the same recorder; -1 for a root
	req        reqID
}

// reqID names one request of the synthesized stream: its connection and
// its index in that connection's sequence. The HTTP pass and the
// in-process replay of the same request share the id.
type reqID struct {
	conn, index int
}

// recorder holds one goroutine's spans; it is not safe for concurrent use.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span and returns its index for use as a parent.
func (r *recorder) add(name string, start, end int64, parent int, req reqID) int {
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return len(r.spans) - 1
}

// writeSpans writes every recorder's spans as JSON lines. Span ids are
// global across recorders; parent -1 marks a root.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	offset := 0
	for _, r := range recs {
		for i, s := range r.spans {
			parent := -1
			if s.parent >= 0 {
				parent = offset + s.parent
			}
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendInt(line, int64(offset+i), 10)
			line = append(line, `,"name":`...)
			line = strconv.AppendQuote(line, s.name)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(parent), 10)
			line = append(line, `,"conn":`...)
			line = strconv.AppendInt(line, int64(s.req.conn), 10)
			line = append(line, `,"req":`...)
			line = strconv.AppendInt(line, int64(s.req.index), 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
		offset += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of xs, exact over the
// retained samples; xs is sorted in place. It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
