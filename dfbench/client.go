package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/loadgen"
)

// newHTTPClient returns a client that opens at most conns connections:
// MaxConnsPerHost caps open connections, not just idle ones, so a burst
// can never open a connection per in-flight request.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// call issues one request and reads the whole response into buf. A
// status outside want is an error carrying the response body.
func call(ctx context.Context, hc *http.Client, method, url, contentType string, body []byte, buf *bytes.Buffer, want ...int) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: reading response: %w", method, url, err)
	}
	for _, s := range want {
		if resp.StatusCode == s {
			return nil
		}
	}
	return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
}

// Response shapes the correctness gate checks. Unknown fields are
// ignored; a missing alert decodes as an empty RawMessage.
type observeResp struct {
	Observed int             `json:"observed"`
	Seen     int             `json:"seen"`
	Alert    json.RawMessage `json:"alert"`
}

type decideResp struct {
	Decisions   []int           `json:"decisions"`
	Changed     int             `json:"changed"`
	Observed    int             `json:"observed"`
	PlanVersion int             `json:"plan_version"`
	Alert       json.RawMessage `json:"alert"`
}

type reportResp struct {
	SchemaVersion int    `json:"schema_version"`
	LadderSource  string `json:"ladder_source"`
}

type monitorStatsResp struct {
	Seen       int `json:"seen"`
	ServedSeen int `json:"served_seen"`
}

type repairResp struct {
	PlanVersion int             `json:"plan_version"`
	Alert       json.RawMessage `json:"alert"`
}

// checkObserve validates a 2xx observe body for a batch of n.
func checkObserve(body []byte, n int) error {
	var r observeResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("observe response: %w", err)
	}
	if r.Observed != n {
		return fmt.Errorf("observe response: observed %d, want %d", r.Observed, n)
	}
	if len(r.Alert) != 0 {
		return fmt.Errorf("observe response: threshold fired: %s", r.Alert)
	}
	return nil
}

// checkDecide validates a 2xx decide body for a batch of n against the
// installed plan version, returning the number of changed decisions.
func checkDecide(body []byte, n, planVersion int) (int, error) {
	var r decideResp
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decide response: %w", err)
	}
	if len(r.Decisions) != n || r.Observed != n {
		return 0, fmt.Errorf("decide response: %d decisions, observed %d, want %d", len(r.Decisions), r.Observed, n)
	}
	for i, d := range r.Decisions {
		if d != 0 && d != 1 {
			return 0, fmt.Errorf("decide response: decisions[%d] = %d is not binary", i, d)
		}
	}
	if r.PlanVersion != planVersion {
		return 0, fmt.Errorf("decide response: plan_version %d, want %d", r.PlanVersion, planVersion)
	}
	if r.Changed < 0 || r.Changed > n {
		return 0, fmt.Errorf("decide response: changed %d outside [0, %d]", r.Changed, n)
	}
	if len(r.Alert) != 0 {
		return 0, fmt.Errorf("decide response: threshold fired: %s", r.Alert)
	}
	return r.Changed, nil
}

// checkReport validates a 2xx report body: schema v2 with the ladder
// source recorded.
func checkReport(body []byte) error {
	var r reportResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("report response: %w", err)
	}
	if r.SchemaVersion != 2 {
		return fmt.Errorf("report response: schema_version %d, want 2", r.SchemaVersion)
	}
	if r.LadderSource == "" {
		return fmt.Errorf("report response: ladder_source not set")
	}
	return nil
}

// urls pre-renders every request URL of a run, indexed by monitor.
type urls struct {
	observe, decide, report, stats []string
}

func newURLs(base string, monitors int) *urls {
	u := &urls{}
	for m := 0; m < monitors; m++ {
		root := base + "/v1/monitors/" + monitorID(m)
		u.observe = append(u.observe, root+"/observe")
		u.decide = append(u.decide, root+"/decide")
		u.report = append(u.report, root+"/report?"+reportQuery)
		u.stats = append(u.stats, root)
	}
	return u
}

// requestURL returns the method and URL of a synthesized request.
func (u *urls) requestURL(req *loadgen.Request) (string, string) {
	switch req.Op {
	case loadgen.OpDecide:
		return http.MethodPost, u.decide[req.Monitor]
	case loadgen.OpReport:
		return http.MethodGet, u.report[req.Monitor]
	}
	return http.MethodPost, u.observe[req.Monitor]
}
