// Command bench is the repository benchmark: it drives an embedded mochyd
// through the client SDK with one of four MoCHy workloads, checks every
// output against serial in-process references, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	go run . --workload census-exact --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a run with span
// recording off. With --trace 1 it replays a shortened op stream on the
// daemon's layers in-process, with a span around every call into a layer,
// and reports per-layer metrics; the spans are written as JSON to
// <workdir>/trace/<workload>-seed<n>.json. See README.md for the
// workloads, metrics and bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	quick    bool
	workdir  string
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"census-exact":     func() workload { return newCensus(modeExact) },
	"census-sampled":   func() workload { return newCensus(modeSampled) },
	"profile-ensemble": func() workload { return newCensus(modeProfile) },
	"serve-mixed":      func() workload { return newServe() },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs one workload and prints its report, returning the
// exit code: 0 when the run completed and every output was correct.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: census-exact, census-sampled, profile-ensemble or serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; 1 reproduces the Table-2 graphs")
	fs.Float64Var(&seconds, "seconds", 15, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny inputs and short phases, for the self-test")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temporary data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[cfg.workload]
	if !ok || fs.NArg() > 0 || (trace != 0 && trace != 1) || seconds <= 0 {
		fmt.Fprintf(stderr, "bench: want --workload one of %s, --trace 0 or 1 and --seconds > 0\n", strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if err := os.MkdirAll(filepath.Join(cfg.workdir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "# bench workload=%s seed=%d trace=%d quick=%v\n", cfg.workload, cfg.seed, trace, cfg.quick)
	fmt.Fprintf(stdout, "# env: nproc=%d gomaxprocs=%d go=%s cpu=%q datadir_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType(cfg.workdir))

	ctx := context.Background()
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(ctx, cfg, newW(), stdout)
	} else {
		res, err = runE2E(ctx, cfg, newW(), stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "# %-36s %.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: output check failed")
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	magic := int64(st.Type)
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
	}
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}
