package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/loadgen"
)

// FuzzServeDecide drives arbitrary bodies at the decide endpoint of a
// monitor with an installed plan: malformed input must always produce a
// 4xx, never a 5xx (the gateway cannot crash or blame itself for
// client garbage), and every 200 must carry a structurally valid
// response. The seed corpus runs as a regression suite under plain
// `go test`; `go test -fuzz FuzzServeDecide` explores.
func FuzzServeDecide(f *testing.F) {
	mux := newMux(serverConfig{workers: 1, maxBody: 1 << 20})
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve(http.MethodPut, "/v1/monitors/fz",
		[]byte(`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["no", "yes"],
			"window": {"size": 100000}, "threshold": 0.9, "min_effective": 4}`)); rec.Code != http.StatusCreated {
		f.Fatalf("monitor setup: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(http.MethodPost, "/v1/monitors/fz/observe",
		[]byte(`{"groups": [0,0,0,0,1,1,1,1], "outcomes": [1,1,1,0,0,0,0,1]}`)); rec.Code != http.StatusOK {
		f.Fatalf("observe setup: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(http.MethodPost, "/v1/monitors/fz/repair",
		[]byte(`{"target_epsilon": 0.5, "auto_refresh": true, "seed": 1}`)); rec.Code != http.StatusOK {
		f.Fatalf("repair setup: %d %s", rec.Code, rec.Body)
	}

	f.Add([]byte(`{"groups": [0, 1], "decisions": [1, 0]}`))
	f.Add([]byte(`{"groups": [0], "decisions": [1, 0]}`))
	f.Add([]byte(`{"groups": [], "decisions": []}`))
	f.Add([]byte(`{"groups": [99], "decisions": [1]}`))
	f.Add([]byte(`{"groups": [-1], "decisions": [0]}`))
	f.Add([]byte(`{"groups": [0], "decisions": [7]}`))
	f.Add([]byte(`{"groups": [0], "decisions": [1], "extra": true}`))
	f.Add([]byte(`{"groups": [0`))
	f.Add([]byte(`"a string"`))
	f.Add([]byte(`{"groups": [0.5], "decisions": [1]}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec := serve(http.MethodPost, "/v1/monitors/fz/decide", raw)
		if rec.Code >= 500 {
			t.Fatalf("decide returned %d on %q: %s", rec.Code, raw, rec.Body)
		}
		switch {
		case rec.Code == http.StatusOK:
			var resp decideResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("invalid 200 response on %q: %v", raw, err)
			}
			if len(resp.Decisions) != resp.Observed || resp.PlanVersion < 1 {
				t.Fatalf("inconsistent 200 response on %q: %+v", raw, resp)
			}
			for _, d := range resp.Decisions {
				if d != 0 && d != 1 {
					t.Fatalf("non-binary served decision %d on %q", d, raw)
				}
			}
		case rec.Code >= 400:
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("4xx without an error body on %q: %s", raw, rec.Body)
			}
		}
	})
}

// FuzzDecodeBinaryBatch drives arbitrary bodies and monitor shapes
// through the application/x-df-batch decoder (binaryBatchLen then
// decodeBinaryBatch). It must never panic; a body it accepts must hold
// only in-range groups and outcomes, exactly the claimed pair count, and
// must be rejected again once its last byte is cut off; a body it
// rejects must fail with one of the decoder's own errors. The seeds are
// the cases of TestBinaryBatchBadRequests.
func FuzzDecodeBinaryBatch(f *testing.F) {
	ok := loadgen.AppendBinaryBatch(nil, []int{0, 1}, []int{1, 0})
	for _, body := range [][]byte{
		ok,
		nil,
		{0},
		{9, 0, 1},
		ok[:len(ok)-1],
		append(append([]byte{}, ok...), 0),
		loadgen.AppendBinaryBatch(nil, []int{4}, []int{0}),
		loadgen.AppendBinaryBatch(nil, []int{0}, []int{2}),
		loadgen.AppendBinaryBatch(nil, []int{300, 3}, []int{1, 1}),
		{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0},
	} {
		f.Add(body, uint16(4), uint8(2))
	}
	decode := func(body []byte, numGroups, numOutcomes int) ([]int, []int, error) {
		n, off, err := binaryBatchLen(body)
		if err != nil {
			return nil, nil, err
		}
		groups, outcomes := make([]int, n), make([]int, n)
		return groups, outcomes, decodeBinaryBatch(body, off, groups, outcomes, numGroups, numOutcomes)
	}
	f.Fuzz(func(t *testing.T, body []byte, numGroups uint16, numOutcomes uint8) {
		ng, no := int(numGroups), int(numOutcomes)
		groups, outcomes, err := decode(body, ng, no)
		if err != nil {
			if groups != nil && !errors.Is(err, errBatchTruncated) && !errors.Is(err, errBatchTrailing) &&
				!errors.Is(err, errBatchGroupRange) && !errors.Is(err, errBatchOutcomeRange) {
				t.Fatalf("decode of %x failed with a foreign error: %v", body, err)
			}
			return
		}
		if len(groups) == 0 {
			t.Fatalf("accepted an empty batch %x", body)
		}
		for i := range groups {
			if groups[i] < 0 || groups[i] >= ng || outcomes[i] < 0 || outcomes[i] >= no {
				t.Fatalf("accepted out-of-range pair %d (%d, %d) for shape %dx%d in %x",
					i, groups[i], outcomes[i], ng, no, body)
			}
		}
		if _, _, err := decode(body[:len(body)-1], ng, no); err == nil {
			t.Fatalf("accepted %x truncated by one byte", body)
		}
	})
}

// durableFuzzServer boots a registry over a fresh -data-dir and returns a
// request helper plus the WAL's current sequence number, so a fuzz
// target can check which requests reached the log.
func durableFuzzServer(f *testing.F) (serve func(method, path string, body []byte) *httptest.ResponseRecorder, walSeq func() uint64) {
	sv := newServer(durableConfig(f.TempDir(), 0))
	f.Cleanup(func() { sv.reg.closeStore() })
	if reason := sv.reg.store.degraded(); reason != "" {
		f.Fatalf("durable registry degraded at boot: %s", reason)
	}
	serve = func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	return serve, sv.reg.store.log.Seq
}

// checkMutation holds a mutating request to the decoder contract: no
// 5xx, a JSON error body on every 4xx, no WAL record for a rejected
// request and exactly one for an accepted one.
func checkMutation(t *testing.T, rec *httptest.ResponseRecorder, raw []byte, before, after uint64) {
	t.Helper()
	switch {
	case rec.Code >= 500:
		t.Fatalf("returned %d on %q: %s", rec.Code, raw, rec.Body)
	case rec.Code >= 400:
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Fatalf("4xx without an error body on %q: %s", raw, rec.Body)
		}
		if after != before {
			t.Fatalf("rejected request %q (%d) appended %d WAL record(s)", raw, rec.Code, after-before)
		}
	default:
		if after != before+1 {
			t.Fatalf("accepted request %q (%d) appended %d WAL records, want 1", raw, rec.Code, after-before)
		}
	}
}

// FuzzObserveJSON drives arbitrary JSON observe bodies at a durable
// monitor armed with an ε and a metric threshold. The seeds are the
// bodies of TestMonitorObserveForms plus the accepted forms.
func FuzzObserveJSON(f *testing.F) {
	serve, walSeq := durableFuzzServer(f)
	if rec := serve(http.MethodPut, "/v1/monitors/fz",
		[]byte(`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["deny", "approve"],
			"window": {"size": 4096, "buckets": 4}, "threshold": 0.9, "min_effective": 4,
			"metrics": [{"key": "worst_ratio", "threshold": 0.8}]}`)); rec.Code != http.StatusCreated {
		f.Fatalf("monitor setup: %d %s", rec.Code, rec.Body)
	}

	f.Add([]byte(`{"observations": [{"group": {"g": "a"}, "outcome": "approve"}, {"group": {"g": "b"}, "outcome": "deny"}]}`))
	f.Add([]byte(`{"groups": [0, 1, 1], "outcomes": [1, 0, 1]}`))
	f.Add([]byte(`{"observations": [{"group": {"g": "a"}, "outcome": "deny"}], "groups": [0], "outcomes": [0]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"groups": [0, 1], "outcomes": [0]}`))
	f.Add([]byte(`{"groups": [7], "outcomes": [0]}`))
	f.Add([]byte(`{"groups": [-1], "outcomes": [0]}`))
	f.Add([]byte(`{"groups": [0], "outcomes": [2]}`))
	f.Add([]byte(`{"observations": [{"group": {"g": "a"}, "outcome": "zzz"}]}`))
	f.Add([]byte(`{"observations": [{"group": {"g": "q"}, "outcome": "deny"}]}`))
	f.Add([]byte(`{"observations": [{"group": {}, "outcome": "deny"}]}`))
	f.Add([]byte(`{"groups": [0], "outcomes": [1], "extra": true}`))
	f.Add([]byte(`{"groups": [0`))
	f.Add([]byte(`[1, 2]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		before := walSeq()
		rec := serve(http.MethodPost, "/v1/monitors/fz/observe", raw)
		checkMutation(t, rec, raw, before, walSeq())
	})
}

// FuzzPutMonitorSpec drives arbitrary monitor specs at PUT
// /v1/monitors/{id} on a durable registry. The seeds are the bodies of
// TestMonitorPutValidation and the unknown-metric case, plus accepted
// specs for each policy.
func FuzzPutMonitorSpec(f *testing.F) {
	serve, walSeq := durableFuzzServer(f)

	space := `"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x", "y"]`
	f.Add([]byte(`{` + space + `, "half_life": 10, "alpha": 0.5}`))
	f.Add([]byte(`{` + space + `, "window": {"size": 64, "buckets": 4}, "threshold": 1, "min_effective": 8}`))
	f.Add([]byte(`{` + space + `, "window": {"size": 64}, "metrics": [{"key": "worst_ratio", "threshold": 0.8}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{` + space + `}`))
	f.Add([]byte(`{` + space + `, "half_life": 10, "window": {"size": 8}}`))
	f.Add([]byte(`{` + space + `, "half_life": -5}`))
	f.Add([]byte(`{` + space + `, "window": {"size": 7, "buckets": 2}}`))
	f.Add([]byte(`{"space": [{"name": "g", "values": ["a", "b"]}], "outcomes": ["x"], "half_life": 10}`))
	f.Add([]byte(`{"space": [], "outcomes": ["x", "y"], "half_life": 10}`))
	f.Add([]byte(`{"bogus": 1}`))
	f.Add([]byte(`{` + space + `, "half_life": 10, "threshold": -1}`))
	f.Add([]byte(`{` + space + `, "window": {"size": 64}, "metrics": [{"key": "bogus", "threshold": 1}]}`))
	f.Add([]byte(`{"space": [{"name": "g", "values": ["a", "a"]}], "outcomes": ["x", "y"], "half_life": 10}`))
	f.Add([]byte(`{"space": [{"name": "g", "values": ["a", "b"]}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		before := walSeq()
		rec := serve(http.MethodPut, "/v1/monitors/fz", raw)
		checkMutation(t, rec, raw, before, walSeq())
	})
}
