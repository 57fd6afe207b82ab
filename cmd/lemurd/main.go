// Command lemurd is the lemur control-plane daemon: a long-running process
// that owns one simulated NFV deployment and level-triggered-reconciles it
// toward a desired-state spec, serving a JSON API and Prometheus metrics on
// a unix socket. See OPERATIONS.md for the operator guide.
//
// Usage:
//
//	lemurd -socket /run/lemurd.sock [-watch specs/] [-snapshot lemurd.snap]
//	       [-interval 1s] [-spec initial.json] [-chaos "crash:nf-server-1@0.3s"]
//	       [-allow-repack] [-max-backoff 10s]
//	lemurd status -socket /run/lemurd.sock
//	lemurd apply  -socket /run/lemurd.sock -f desired.json
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lemur/internal/chaos"
	"lemur/internal/daemon"
	"lemur/internal/obs"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "status":
			runStatus(os.Args[2:])
			return
		case "apply":
			runApply(os.Args[2:])
			return
		}
	}
	runDaemon(os.Args[1:])
}

func runDaemon(args []string) {
	fs := flag.NewFlagSet("lemurd", flag.ExitOnError)
	var (
		socket      = fs.String("socket", "", "unix socket path for the JSON API and /metrics (required)")
		watch       = fs.String("watch", "", "directory to poll for *.json desired-state documents")
		snapshot    = fs.String("snapshot", "", "crash-safe apply-log path; an existing snapshot is replayed so restarts resume the previous placement")
		interval    = fs.Duration("interval", time.Second, "reconcile (and watch-poll) period; must be positive")
		specPath    = fs.String("spec", "", "desired-state document applied once at startup")
		chaosSched  = fs.String("chaos", "", "crash-injection schedule relative to daemon start, e.g. \"crash:nf-server-1@0.3s\" (crash events only)")
		allowRepack = fs.Bool("allow-repack", false, "let the loop apply full-repack admission verdicts (disruptive: every chain's dataplane state moves)")
		maxBackoff  = fs.Duration("max-backoff", daemon.DefaultMaxBackoff, "cap on the exponential retry backoff after transient apply failures")
	)
	fs.Parse(args)
	cfg := daemon.Config{
		SocketPath:   *socket,
		WatchDir:     *watch,
		SnapshotPath: *snapshot,
		Interval:     *interval,
		MaxBackoff:   *maxBackoff,
		AllowRepack:  *allowRepack,
	}
	if err := validateDaemonFlags(*socket, *watch, *interval, *maxBackoff); err != nil {
		fatal(err)
	}
	if *chaosSched != "" {
		plan, err := chaos.Parse(*chaosSched)
		if err != nil {
			fatal(err)
		}
		cfg.ChaosPlan = plan
	}

	obs.Enable()
	d, err := daemon.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *specPath != "" {
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		if _, err := d.SetSpec(raw, "flag:-spec"); err != nil {
			fatal(err)
		}
	}

	// A stale socket file from a dead daemon would make Listen fail; only
	// remove it if nothing answers on it.
	if _, err := os.Stat(*socket); err == nil {
		if c, err := net.Dial("unix", *socket); err == nil {
			c.Close()
			fatal(fmt.Errorf("another daemon is already serving on %s", *socket))
		}
		os.Remove(*socket)
	}
	ln, err := net.Listen("unix", *socket)
	if err != nil {
		fatal(err)
	}
	defer os.Remove(*socket)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "lemurd: serving on %s, reconciling every %v\n", *socket, *interval)
	d.Run(ctx)
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
}

// validateDaemonFlags rejects malformed daemon flags before any state is
// touched, mirroring the Config.validate checks that matter at the CLI
// surface (table-driven-tested in main_test.go).
func validateDaemonFlags(socket, watch string, interval, maxBackoff time.Duration) error {
	if socket == "" {
		return fmt.Errorf("-socket is required")
	}
	if len(socket) > 100 {
		return fmt.Errorf("-socket path exceeds the unix sun_path limit (%d > 100 bytes)", len(socket))
	}
	if interval <= 0 {
		return fmt.Errorf("-interval must be positive, got %v", interval)
	}
	if maxBackoff <= 0 {
		return fmt.Errorf("-max-backoff must be positive, got %v", maxBackoff)
	}
	if watch != "" {
		fi, err := os.Stat(watch)
		if err != nil {
			return fmt.Errorf("-watch: %w", err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("-watch %s is not a directory", watch)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lemurd:", err)
	os.Exit(1)
}
