package vodserver

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// handlerState reports how many connections the server still tracks for
// shutdown and how many handleConn goroutines are alive.
func handlerState(s *Server) (tracked, handlers int) {
	s.mu.Lock()
	tracked = len(s.conns)
	s.mu.Unlock()
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return tracked, strings.Count(string(buf), "vodserver.(*Server).handleConn(")
}

// waitHandlersGone polls until the server tracks no connection and runs no
// connection handler, failing the test once bound has elapsed since start.
func waitHandlersGone(t *testing.T, s *Server, start time.Time, bound time.Duration) {
	t.Helper()
	for {
		tracked, handlers := handlerState(s)
		if tracked == 0 && handlers == 0 {
			return
		}
		if time.Since(start) > bound {
			t.Fatalf("after %v: %d connections still tracked, %d handler goroutines alive (bound %v)",
				time.Since(start), tracked, handlers, bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitGoroutines polls until the process is back to at most want
// goroutines; exiting goroutines need a beat to retire.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", want, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStartFailureReleasesGoroutines: a Start that fails after the alert
// evaluator, history scraper and conntrack sampler exist must stop all of
// them, close its listeners and return the goroutine count to baseline.
func TestStartFailureReleasesGoroutines(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	notDir := filepath.Join(t.TempDir(), "flight")
	if err := os.WriteFile(notDir, []byte("a regular file"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cfg  Config
	}{
		{"stats address in use", Config{StatsAddr: busy.Addr().String()}},
		{"flight dir is a regular file", Config{FlightDir: notDir, StatsAddr: "127.0.0.1:0"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := tt.cfg
			cfg.Addr = "127.0.0.1:0"
			cfg.Videos = []VideoConfig{{ID: 1, Segments: 5, SegmentBytes: 64}}
			cfg.SlotDuration = 2 * time.Millisecond
			cfg.HistoryInterval = time.Millisecond
			cfg.ConntrackInterval = time.Millisecond
			cfg.AlertInterval = time.Millisecond
			s, err := Start(cfg)
			if err == nil {
				s.Close()
				t.Fatal("Start succeeded, want an error")
			}
			if s != nil {
				t.Fatalf("failed Start returned a server: %v", s)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestHandshakeReadBounded: a dialer that connects and never sends a
// request is closed and untracked once the control-read bound — four
// slots, at least a second — expires, and its handler goroutine exits.
func TestHandshakeReadBounded(t *testing.T) {
	s := startTestServer(t)
	const bound = time.Second // 4 slots of 10 ms are below the 1 s floor
	start := time.Now()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for {
		if tracked, _ := handlerState(s); tracked == 1 {
			break
		}
		if time.Since(start) > bound {
			t.Fatal("connection never tracked")
		}
		time.Sleep(time.Millisecond)
	}
	// The server hangs up on the silent peer: the client sees EOF, not its
	// own read deadline.
	if err := conn.SetReadDeadline(time.Now().Add(bound + 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := conn.Read(b[:]); !errors.Is(err, io.EOF) {
		t.Fatalf("silent dialer read %v, want EOF from the server closing it", err)
	}
	if waited := time.Since(start); waited < bound/2 {
		t.Fatalf("server closed the silent dialer after %v, before the %v bound", waited, bound)
	}
	waitHandlersGone(t, s, start, bound+time.Second)
}
