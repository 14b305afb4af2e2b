// Native mode: the fifth oracle execution — lower the compiled program
// to Go with the codegen backend, build it with the real toolchain, run
// the binary serially and in parallel, and require both final states to
// match the interpreter's serial reference bit-for-bit (tolerance 0 is
// possible because the harness prints hex floats, which round-trip
// exactly through strconv).
package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/parser"
)

// ErrNativeUnsupported wraps a codegen refusal: the program uses a
// construct outside the Go backend's exactly-reproducible subset. The
// oracle skips such programs silently — refusing is not a soundness bug.
var ErrNativeUnsupported = errors.New("native emission unsupported")

// NativeResult is one native execution's parsed harness output.
type NativeResult struct {
	State     State
	ElapsedNs int64
	Leaked    int // goroutines still alive at exit; 0 when clean
}

// EmitNative compiles src with the full pipeline and lowers it to Go
// source. Returns ErrNativeUnsupported (wrapped) on a codegen refusal.
func EmitNative(ctx context.Context, label, src string, procs int) (string, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return "", fmt.Errorf("parse: %w", err)
	}
	res, err := core.CompileContext(ctx, prog, core.PolarisOptions())
	if err != nil {
		return "", fmt.Errorf("compile: %w", err)
	}
	goSrc, err := codegen.EmitGo(res, codegen.GoOptions{Processors: procs, Label: label})
	if err != nil {
		var ue *codegen.UnsupportedError
		if errors.As(err, &ue) {
			return "", fmt.Errorf("%w: %s", ErrNativeUnsupported, ue.Reason)
		}
		return "", err
	}
	return goSrc, nil
}

// BuildNative writes goSrc to a fresh temp dir and builds it with the
// Go toolchain, returning the binary path and a cleanup function.
func BuildNative(ctx context.Context, goSrc string, race bool) (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "polaris-native-")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	if err := os.WriteFile(dir+"/main.go", []byte(goSrc), 0o644); err != nil {
		cleanup()
		return "", nil, err
	}
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", "prog", "main.go")
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return dir + "/prog", cleanup, nil
}

// RunNativeBinary executes a built native binary with the given flags
// and parses its harness output (STATE / ELAPSEDNS / goroutine check).
//
// A -race binary would sleep a second at exit, the race runtime's
// default, so that goroutines still running can report; the harness
// has joined every goroutine by then, so the binary runs with
// atexit_sleep_ms=0 ahead of any GORACE options already set, which
// win. A race still exits 66.
func RunNativeBinary(ctx context.Context, bin string, args ...string) (*NativeResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), strings.TrimSpace("GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE")))
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("native run %v: %v\n%s", args, err, truncate(string(out), 2000))
	}
	return parseNativeOutput(string(out))
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

func parseNativeOutput(out string) (*NativeResult, error) {
	r := &NativeResult{State: State{}}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "STATE "):
			fields := strings.Fields(line[len("STATE "):])
			if len(fields) == 0 {
				return nil, fmt.Errorf("malformed STATE line: %q", line)
			}
			vals := make([]float64, 0, len(fields)-1)
			for _, f := range fields[1:] {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("bad STATE value %q: %v", f, err)
				}
				vals = append(vals, v)
			}
			r.State[fields[0]] = vals
		case strings.HasPrefix(line, "ELAPSEDNS "):
			v, err := strconv.ParseInt(strings.TrimSpace(line[len("ELAPSEDNS "):]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad ELAPSEDNS line: %q", line)
			}
			r.ElapsedNs = v
		case strings.HasPrefix(line, "GOROUTINELEAK "):
			v, _ := strconv.Atoi(strings.TrimSpace(line[len("GOROUTINELEAK "):]))
			if v == 0 {
				v = -1
			}
			r.Leaked = v
		}
	}
	return r, nil
}

// nativeModes is the execution matrix for one built binary: the serial
// harness run (a sanity anchor: emitted code must reproduce the
// reference even with parallelism disabled) and the parallel run.
func nativeModes(procs int) [][]string {
	return [][]string{
		{"-serial"},
		{"-p", strconv.Itoa(procs)},
	}
}

// checkNative runs the native mode for one program against the serial
// reference and returns its discrepancies. Codegen refusals are a
// silent skip; build and run failures are infrastructure discrepancies
// (the emitted code must always build and run cleanly).
func checkNative(ctx context.Context, label, src string, ref State, cfg Config) []Discrepancy {
	goSrc, err := EmitNative(ctx, label, src, cfg.Processors)
	if err != nil {
		if errors.Is(err, ErrNativeUnsupported) {
			return nil
		}
		return []Discrepancy{{Label: label, Mode: "native (error)", Detail: err.Error(), Source: src}}
	}
	bin, cleanup, err := BuildNative(ctx, goSrc, cfg.NativeRace)
	if err != nil {
		return []Discrepancy{{Label: label, Mode: "native-build (error)", Detail: err.Error(), Source: src}}
	}
	defer cleanup()
	var out []Discrepancy
	for _, args := range nativeModes(cfg.Processors) {
		name := "native" + strings.Join(args, "")
		res, err := RunNativeBinary(ctx, bin, args...)
		if err != nil {
			out = append(out, Discrepancy{Label: label, Mode: name + " (error)", Detail: err.Error(), Source: src})
			continue
		}
		if res.Leaked != 0 {
			out = append(out, Discrepancy{Label: label, Mode: name,
				Detail: fmt.Sprintf("goroutine leak: %d still alive at exit", res.Leaked), Source: src})
		}
		if d := Diff(ref, res.State, 0); d != "" {
			out = append(out, Discrepancy{Label: label, Mode: name, Detail: d, Source: src})
		}
	}
	return out
}
