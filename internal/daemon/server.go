package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"lemur/internal/obs"
)

// maxSpecBytes bounds a PUT /v1/spec body; desired-state documents are
// kilobytes, so anything near this is a client error, not a workload.
const maxSpecBytes = 8 << 20

// failRequest is the POST /v1/fail body: device names to declare dead.
type failRequest struct {
	// Nodes are topology device names (servers or SmartNICs).
	Nodes []string `json:"nodes"`
}

// applyReply is the PUT /v1/spec success body.
type applyReply struct {
	Generation int64 `json:"generation"`
}

// errorReply is every endpoint's failure body.
type errorReply struct {
	Error string `json:"error"`
}

// Handler returns the daemon's JSON API as an http.Handler, normally served
// on a unix socket by cmd/lemurd (see OPERATIONS.md for the wire reference):
//
//	GET  /v1/status  — Status JSON (placement, SLO verdicts, headroom)
//	GET  /v1/spec    — the current desired-state document
//	PUT  /v1/spec    — validate-and-apply a desired-state document
//	POST /v1/fail    — declare devices dead (failRequest)
//	GET  /metrics    — Prometheus text exposition of the obs registry
//	GET  /healthz    — liveness ("ok")
//
// A rejected spec answers 422 with the validation error and, per
// validate-before-apply, changes nothing. Mutations apply on the next
// reconcile tick; PUT answers with the accepted generation so clients can
// poll /v1/status for applied_generation >= it.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
			return
		}
		writeJSON(w, http.StatusOK, d.StatusSnapshot())
	})
	mux.HandleFunc("/v1/spec", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			d.mu.Lock()
			raw := []byte(nil)
			if d.desired != nil {
				raw = d.desired.raw
			}
			d.mu.Unlock()
			if raw == nil {
				writeError(w, http.StatusNotFound, fmt.Errorf("no desired state yet"))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(raw)
		case http.MethodPut, http.MethodPost:
			raw, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			if len(raw) > maxSpecBytes {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("spec exceeds %d bytes", maxSpecBytes))
				return
			}
			gen, err := d.SetSpec(raw, "api")
			if err != nil {
				writeError(w, http.StatusUnprocessableEntity, err)
				return
			}
			writeJSON(w, http.StatusOK, applyReply{Generation: gen})
		default:
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or PUT"))
		}
	})
	mux.HandleFunc("/v1/fail", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		var req failRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(req.Nodes) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("nodes must be non-empty"))
			return
		}
		if err := d.InjectFailures(req.Nodes); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorReply{Error: err.Error()})
}
