package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"lemur/internal/daemon"
)

// socketClient returns an http.Client that dials the daemon's unix socket
// regardless of the request URL's host.
func socketClient(socket string) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", socket)
			},
		},
	}
}

// runStatus implements `lemurd status`: fetch /v1/status and render the
// per-chain placement, SLO verdicts, and admission headroom.
func runStatus(args []string) {
	fs := flag.NewFlagSet("lemurd status", flag.ExitOnError)
	socket := fs.String("socket", "", "daemon unix socket (required)")
	asJSON := fs.Bool("json", false, "print the raw status JSON instead of the table")
	fs.Parse(args)
	if *socket == "" {
		fatal(fmt.Errorf("-socket is required"))
	}
	body := get(*socket, "/v1/status")
	if *asJSON {
		os.Stdout.Write(body)
		return
	}
	var st daemon.Status
	if err := json.Unmarshal(body, &st); err != nil {
		fatal(err)
	}
	fmt.Printf("generation %d (applied %d)  converged=%v\n", st.Generation, st.AppliedGeneration, st.Converged)
	if st.LastError != "" {
		fmt.Printf("last error: %s\n", st.LastError)
	}
	if st.SnapshotError != "" {
		fmt.Printf("snapshot error: %s\n", st.SnapshotError)
	}
	if st.BackingOff {
		fmt.Println("backing off: a transient apply failure is being retried")
	}
	if len(st.FailedNodes) > 0 {
		fmt.Printf("failed nodes: %v\n", st.FailedNodes)
	}
	fmt.Printf("\n%-12s %5s %14s %14s %12s %8s  %s\n", "CHAIN", "SLOT", "RATE", "TMIN", "P99", "SLO", "PLACEMENT")
	for _, c := range st.Chains {
		p99 := "unbounded" // -1: a subgroup on the worst path runs at ρ >= 1
		if c.PredictedP99Sec >= 0 {
			p99 = fmt.Sprintf("%.1fus", c.PredictedP99Sec*1e6)
		}
		verdict := "met"
		if !c.SLOMet {
			verdict = "MISSED"
		}
		fmt.Printf("%-12s %5d %13.2fG %13.2fG %12s %8s  servers=%v devices=%v cores=%d\n",
			c.Name, c.Slot, c.RateBps/1e9, c.TMinBps/1e9, p99, verdict, c.Servers, c.Devices, c.Cores)
	}
	fmt.Printf("\n%-16s %6s %6s %6s\n", "SERVER", "TOTAL", "USED", "FREE")
	for _, h := range st.Headroom {
		note := ""
		if h.Failed {
			note = "  FAILED"
		}
		fmt.Printf("%-16s %6d %6d %6d%s\n", h.Server, h.Total, h.Used, h.Free, note)
	}
	fmt.Printf("\nreconciles=%d applies=%d rejected=%d backoff_retries=%d errors=%d\n",
		st.Counters.Reconciles, st.Counters.Applies, st.Counters.RejectedSpecs,
		st.Counters.BackoffRetries, st.Counters.Errors)
}

// runApply implements `lemurd apply`: PUT a desired-state document and
// report the accepted generation.
func runApply(args []string) {
	fs := flag.NewFlagSet("lemurd apply", flag.ExitOnError)
	socket := fs.String("socket", "", "daemon unix socket (required)")
	file := fs.String("f", "", "desired-state document to apply (required)")
	fs.Parse(args)
	if *socket == "" {
		fatal(fmt.Errorf("-socket is required"))
	}
	if *file == "" {
		fatal(fmt.Errorf("-f is required"))
	}
	raw, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, "http://lemurd/v1/spec", bytes.NewReader(raw))
	if err != nil {
		fatal(err)
	}
	resp, err := socketClient(*socket).Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("apply rejected (%s): %s", resp.Status, body))
	}
	var rep struct {
		Generation int64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		fatal(err)
	}
	fmt.Printf("accepted as generation %d; poll `lemurd status` for applied_generation >= %d\n",
		rep.Generation, rep.Generation)
}

// get fetches one API path over the socket and exits on any failure.
func get(socket, path string) []byte {
	resp, err := socketClient(socket).Get("http://lemurd" + path)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("%s: %s: %s", path, resp.Status, body))
	}
	return body
}
