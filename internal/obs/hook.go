package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

// Hook is the shared observability wiring for the campaign binaries: four
// flags (-obs-addr, -metrics-out, -trace-out, -cpuprofile), a Start that
// builds the registry/tracer, boots the optional HTTP endpoint and starts
// the optional CPU profile, and a Finish that writes the requested dump
// files. When none of the first three flags are set, Start leaves the
// registry and tracer nil and that layer stays disabled (free); the CPU
// profile is independent of it and changes no output.
type Hook struct {
	Addr       string // -obs-addr: listen address for /metrics, /traces, /debug/pprof/
	MetricsOut string // -metrics-out: write the deterministic (stable) metric dump here on exit
	TraceOut   string // -trace-out: write the trace ring as JSON here on exit
	CPUProfile string // -cpuprofile: write a pprof CPU profile of the run here

	Registry *Registry
	Tracer   *Tracer
	server   *Server
	cpuprof  *os.File
}

// BindFlags registers the observability flags on fs (the process FlagSet).
func (h *Hook) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&h.Addr, "obs-addr", "", "serve /metrics, /traces and /debug/pprof/ on this address (empty = off)")
	fs.StringVar(&h.MetricsOut, "metrics-out", "", "write deterministic metric dump to this file on exit (empty = off)")
	fs.StringVar(&h.TraceOut, "trace-out", "", "write trace span dump (JSON) to this file on exit (empty = off)")
	fs.StringVar(&h.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file (empty = off)")
}

// Server returns the live HTTP endpoint, or nil when -obs-addr was not set
// (or Start has not run).
func (h *Hook) Server() *Server { return h.server }

// Enabled reports whether any flag that needs the registry and tracer was
// set (-cpuprofile does not).
func (h *Hook) Enabled() bool {
	return h.Addr != "" || h.MetricsOut != "" || h.TraceOut != ""
}

// Start begins the -cpuprofile profile, builds the registry and tracer
// (when any flag asks for them), installs them as the process defaults,
// and boots the HTTP endpoint if -obs-addr was given. Returns an error only
// for a failed listen or profile start.
func (h *Hook) Start() error {
	if h.CPUProfile != "" {
		f, err := os.Create(h.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		h.cpuprof = f
	}
	if !h.Enabled() {
		return nil
	}
	h.Registry = NewRegistry()
	h.Tracer = NewTracer(0)
	SetDefault(h.Registry, h.Tracer)
	if h.Addr != "" {
		s, err := Serve(h.Addr, h.Registry, h.Tracer)
		if err != nil {
			return err
		}
		h.server = s
		fmt.Fprintf(os.Stderr, "obs: serving /metrics /traces /debug/pprof/ on http://%s\n", s.Addr())
	}
	return nil
}

// Finish stops and writes the CPU profile, writes the -metrics-out and
// -trace-out dumps and shuts the HTTP endpoint down. Safe to call when
// Start never ran.
func (h *Hook) Finish() error {
	var firstErr error
	if h.cpuprof != nil {
		pprof.StopCPUProfile()
		firstErr = h.cpuprof.Close()
		h.cpuprof = nil
	}
	if h.MetricsOut != "" && h.Registry != nil {
		if err := writeFileWith(h.MetricsOut, func(w *os.File) { h.Registry.WriteStable(w) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if h.TraceOut != "" && h.Tracer != nil {
		if err := writeFileWith(h.TraceOut, func(w *os.File) { h.Tracer.WriteJSON(w) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if h.server != nil {
		if err := h.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		h.server = nil
	}
	return firstErr
}

func writeFileWith(path string, fill func(*os.File)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fill(f)
	return f.Close()
}
