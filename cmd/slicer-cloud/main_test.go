package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"slicer/internal/serve"
	"slicer/internal/wire"
)

// lockedBuffer collects the boot lines Run prints from its goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// boot runs the cloud's shell in process until it prints its serving line,
// and stops it when the test ends.
func boot(t *testing.T, args ...string) string {
	t.Helper()
	out := &lockedBuffer{}
	stop := make(chan os.Signal)
	done := make(chan error, 1)
	go func() {
		done <- serve.Run(spec(), flag.NewFlagSet("slicer-cloud", flag.ContinueOnError), args, out, stop)
	}()
	deadline := time.After(10 * time.Second)
	for !strings.Contains(out.String(), "slicer-cloud: serving on ") {
		select {
		case err := <-done:
			t.Fatalf("Run returned during boot: %v\n%s", err, out)
		case <-deadline:
			t.Fatalf("no serving line within 10s:\n%s", out)
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Cleanup(func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	return out.String()
}

// TestShellBootsDurableAuditedCloud boots the cloud with a data directory
// and an admin endpoint: the ledger opens under <data-dir>/audit, recovery
// reports on the data directory, and /healthz answers.
func TestShellBootsDurableAuditedCloud(t *testing.T) {
	dir := t.TempDir()
	out := boot(t, "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-data-dir", dir)
	ledger := filepath.Join(dir, "audit")
	if !regexp.MustCompile(`(?m)^audit ledger ` + regexp.QuoteMeta(ledger) + `: chain verified, head #0 `).MatchString(out) {
		t.Errorf("no verified-ledger line for %s:\n%s", ledger, out)
	}
	if !strings.Contains(out, "recovered from "+dir+": snapshot@0, 0 records replayed") {
		t.Errorf("no recovery line for %s:\n%s", dir, out)
	}
	if fi, err := os.Stat(ledger); err != nil || !fi.IsDir() {
		t.Errorf("audit ledger directory: %v", err)
	}
	m := regexp.MustCompile(`slicer-cloud: admin endpoint on http://(\S+)/metrics`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no admin line:\n%s", out)
	}
	resp, err := http.Get("http://" + m[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("/healthz: %d %q %v", resp.StatusCode, body, err)
	}
}

// TestShellAppliesLabelCap boots the cloud with -label-cap 1: the first
// tenant gets its own series and the second collapses into "other", so the
// cap reached the tenant vector before the metrics were attached.
func TestShellAppliesLabelCap(t *testing.T) {
	out := boot(t, "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-label-cap", "1")
	addr := regexp.MustCompile(`slicer-cloud: serving on (\S+)`).FindStringSubmatch(out)
	admin := regexp.MustCompile(`slicer-cloud: admin endpoint on http://(\S+)/metrics`).FindStringSubmatch(out)
	if addr == nil || admin == nil {
		t.Fatalf("no serving or admin line:\n%s", out)
	}
	for _, tenant := range []string{"alice", "bob"} {
		cli, err := wire.DialOpts(addr[1], wire.ClientOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		// An uninitialized cloud fails cloud.stats; the request still counts.
		_ = cli.Call(wire.MethodCloudStats, nil, new(any))
		cli.Close()
	}
	resp, err := http.Get("http://" + admin[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`slicer_rpc_tenant_requests_total{server="cloud",tenant="alice"} 1`,
		`slicer_rpc_tenant_requests_total{server="other",tenant="other"} 1`,
		`slicer_obs_label_overflow_total{family="slicer_rpc_tenant_requests_total"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestShellAuditDirNone keeps the ledger closed under -audit-dir none, even
// next to a data directory.
func TestShellAuditDirNone(t *testing.T) {
	dir := t.TempDir()
	out := boot(t, "-listen", "127.0.0.1:0", "-data-dir", dir, "-audit-dir", "none")
	if strings.Contains(out, "audit ledger") {
		t.Errorf("ledger opened under -audit-dir none:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "audit")); !os.IsNotExist(err) {
		t.Errorf("audit directory exists under -audit-dir none (stat: %v)", err)
	}
}

// TestShellRejectsBadFsync fails a malformed -fsync at boot, before the
// ledger opens or the server listens, with or without a data directory.
func TestShellRejectsBadFsync(t *testing.T) {
	for _, args := range [][]string{
		{"-listen", "127.0.0.1:0", "-fsync", "bogus"},
		{"-listen", "127.0.0.1:0", "-fsync", "bogus", "-data-dir", t.TempDir()},
	} {
		var out lockedBuffer
		stop := make(chan os.Signal)
		close(stop)
		err := serve.Run(spec(), flag.NewFlagSet("slicer-cloud", flag.ContinueOnError), args, &out, stop)
		if err == nil || !strings.Contains(err.Error(), `bad fsync policy "bogus"`) {
			t.Errorf("%v: Run = %v, want a bad fsync policy error", args, err)
		}
		if out.String() != "" {
			t.Errorf("%v: printed before failing:\n%s", args, out.String())
		}
	}
}
