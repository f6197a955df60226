// Package serve is the process shell of the Slicer servers. slicer-cloud,
// slicer-chain and slicer-router boot through Run: it registers the flags
// they share, builds the logger and metrics registry, opens the audit
// ledger, the SLO engine and the continuous profiler, starts the admin
// endpoint, recovers the server's data directory, listens, and shuts all of
// it down again on SIGINT/SIGTERM. Each binary keeps only what is its own:
// the server it builds and that server's flags.
package serve

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"slicer/internal/audit"
	"slicer/internal/durable"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// Server is a server the shell boots.
type Server interface {
	Server() *wire.Server
	Traces() *obs.TraceStore
	Listen(addr string) (string, error)
	Close() error
}

// Optional Server capabilities, wired when the server has them.
type (
	observable interface {
		SetObservability(*obs.Registry, *slog.Logger)
	}
	audited   interface{ EnableAudit(*audit.Ledger) }
	sloAware  interface{ AttachSLO(*obs.Engine) }
	journaled interface {
		EnableDurability(durable.JournalOptions) (*durable.RecoveryStats, error)
	}
)

// Spec describes one binary to the shell.
type Spec struct {
	// Name prefixes every line the shell prints ("slicer-cloud").
	Name string
	// Listen is the -listen default.
	Listen string
	// Party names a stateful server ("cloud" or "chain"): its RPC series
	// back the -slo aliases, and it takes the audit, SLO, profiler,
	// snapshot, sampling and label-cap flags. The router leaves it empty.
	Party string
	// Methods are the RPC methods the -slo aliases cover.
	Methods []string
	// Build makes the server once the flags are parsed; the shell then
	// attaches its metrics, audit ledger, SLO engine and data directory.
	Build func(env *Env) (Server, error)
}

// Env is what the shell hands Build.
type Env struct {
	// Out receives the boot lines.
	Out      io.Writer
	Logger   *slog.Logger
	Registry *obs.Registry
	// Detail, when Build sets it, follows the address on the serving line.
	Detail func() string
}

// flags are the values of the shared flags.
type flags struct {
	listen, dataDir, fsync, admin, logLevel, logFormat string
	idle                                               time.Duration
	traceCap                                           int

	// Stateful parties only.
	snapEvery, traceSample, profileMax, labelCap int
	auditDir, slo                                string
	profileCPU                                   time.Duration
}

func (f *flags) register(fs *flag.FlagSet, spec Spec) {
	fs.StringVar(&f.listen, "listen", spec.Listen, "address to listen on")
	fs.StringVar(&f.dataDir, "data-dir", "", "durable data directory: WAL + snapshots, crash-safe recovery at boot")
	fs.StringVar(&f.fsync, "fsync", "always", "WAL durability: always, never, or a flush interval like 100ms")
	fs.StringVar(&f.admin, "admin", "", "optional admin HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&f.logFormat, "log-format", "text", "log format: text or json")
	fs.DurationVar(&f.idle, "idle-timeout", wire.DefaultIdleTimeout, "drop connections idle longer than this; 0 disables")
	fs.IntVar(&f.traceCap, "trace-capacity", obs.DefaultTraceCapacity, "how many recent propagated traces to retain for /debug/traces")
	if spec.Party == "" {
		return
	}
	fs.IntVar(&f.snapEvery, "snapshot-every", 0, "fold state into a snapshot every N journaled records (0: default 256, <0: off)")
	fs.StringVar(&f.auditDir, "audit-dir", "", `tamper-evident audit ledger directory (default <data-dir>/audit when -data-dir is set; "none" disables)`)
	fs.IntVar(&f.traceSample, "trace-sample", 1, "retain 1 of every N propagated traces (slow outliers always kept)")
	fs.StringVar(&f.slo, "slo", "", `latency objectives, e.g. "name=search,metric=rpc:search,target=250ms,good=0.99,window=2m;..." or @objectives.conf`)
	fs.IntVar(&f.profileMax, "profile-captures", obs.DefProfileMaxCaptures, "max retained profile bundles under <data-dir>/profiles; oldest evicted first")
	fs.DurationVar(&f.profileCPU, "profile-cpu", obs.DefProfileCPUDuration, "CPU-profile window per capture")
	fs.IntVar(&f.labelCap, "label-cap", wire.DefaultTenantLabelCap, "max distinct tenant label values before new tenants collapse into \"other\"")
}

// Main runs spec as the process's command: flags from the command line,
// boot lines on stdout, SIGINT or SIGTERM to stop. A boot error exits 1.
func Main(spec Spec) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := Run(spec, flag.CommandLine, os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", spec.Name, err)
		os.Exit(1)
	}
}

// Run registers the shared flags on fs, which may already hold the
// binary's own, parses args, boots spec's server and serves until stop
// yields a value or is closed.
func Run(spec Spec, fs *flag.FlagSet, args []string, out io.Writer, stop <-chan os.Signal) error {
	var f flags
	f.register(fs, spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, interval, err := durable.ParsePolicy(f.fsync)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, f.logLevel, f.logFormat)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	env := &Env{Out: out, Logger: logger, Registry: reg}

	admin := obs.AdminOptions{Registry: reg, Logger: logger}
	var led *audit.Ledger
	if spec.Party != "" {
		// The audit ledger opens before the SLO engine and admin endpoint
		// so the integrity series, the /debug/audit handler and the server
		// hooks all see the same ledger. It defaults on next to -data-dir:
		// a server durable enough to recover state is durable enough to
		// account for it.
		ledgerDir := f.auditDir
		if ledgerDir == "" && f.dataDir != "" {
			ledgerDir = filepath.Join(f.dataDir, "audit")
		}
		if ledgerDir != "" && ledgerDir != "none" {
			led, err = audit.Open(audit.Options{
				Dir:           ledgerDir,
				Fsync:         policy,
				FsyncInterval: interval,
				Registry:      reg,
				Logger:        logger,
			})
			if err != nil {
				return fmt.Errorf("audit ledger: %w", err)
			}
			defer led.Close()
			admin.Audit = led.AdminHandler()
			seq, hash := led.Head()
			fmt.Fprintf(out, "audit ledger %s: chain verified, head #%d %s\n", ledgerDir, seq, hash)
		}
		if f.slo != "" {
			aliases := wire.SLOAliases(spec.Party, spec.Methods...)
			for k, v := range audit.SLOAliases() {
				aliases[k] = v
			}
			objs, err := obs.ParseObjectives(f.slo, aliases)
			if err != nil {
				return fmt.Errorf("-slo: %w", err)
			}
			admin.SLO = obs.NewEngine(reg, objs, obs.EngineOptions{Logger: logger})
			defer admin.SLO.Run(0)()
		}
		if f.dataDir != "" {
			admin.Profiler, err = obs.NewProfiler(obs.ProfilerOptions{
				Dir:         filepath.Join(f.dataDir, "profiles"),
				MaxCaptures: f.profileMax,
				CPUDuration: f.profileCPU,
				Registry:    reg,
				Logger:      logger,
			})
			if err != nil {
				return fmt.Errorf("profiler: %w", err)
			}
			if prof := admin.Profiler; admin.SLO != nil {
				admin.SLO.OnBreach(func(st obs.SLOStatus) { prof.Trigger("slo-" + st.Name) })
			}
		} else if admin.SLO != nil {
			logger.Warn("continuous profiler disabled: -slo set without -data-dir, breaches will not capture profiles")
		}
	}

	srv, err := spec.Build(env)
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Server().SetIdleTimeout(f.idle)
	srv.Traces().SetCapacity(f.traceCap)
	if spec.Party != "" {
		srv.Server().SetLabelCap(f.labelCap)
		srv.Traces().SetSampling(f.traceSample)
	}
	// After SetLabelCap: the tenant vector takes its cap when the metrics
	// are attached.
	if s, ok := srv.(observable); ok {
		s.SetObservability(reg, logger)
	}
	if s, ok := srv.(audited); ok && led != nil {
		s.EnableAudit(led)
	}
	if s, ok := srv.(sloAware); ok && admin.SLO != nil {
		s.AttachSLO(admin.SLO)
	}

	if f.admin != "" {
		admin.Traces = srv.Traces()
		adm, err := obs.StartAdminOpts(f.admin, admin)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer adm.Close()
		fmt.Fprintf(out, "%s: admin endpoint on http://%s/metrics\n", spec.Name, adm.Addr())
	}
	if s, ok := srv.(journaled); ok && f.dataDir != "" {
		stats, err := s.EnableDurability(durable.JournalOptions{
			Dir:           f.dataDir,
			Fsync:         policy,
			FsyncInterval: interval,
			SnapshotEvery: f.snapEvery,
			Registry:      reg,
			Logger:        logger,
		})
		if err != nil {
			return fmt.Errorf("durability: %w", err)
		}
		fmt.Fprintf(out, "recovered from %s: snapshot@%d, %d records replayed, %d skipped, %d truncated\n",
			f.dataDir, stats.SnapshotIndex, stats.Replayed, stats.Skipped, stats.Truncated)
	}

	addr, err := srv.Listen(f.listen)
	if err != nil {
		return err
	}
	detail := ""
	if env.Detail != nil {
		detail = ", " + env.Detail()
	}
	fmt.Fprintf(out, "%s: serving on %s%s\n", spec.Name, addr, detail)
	<-stop
	fmt.Fprintf(out, "%s: shutting down\n", spec.Name)
	return nil
}
