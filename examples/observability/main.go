// Example: mochyd's flight recorder end to end — trace one operation
// across the SDK, the daemon's span ring, its job events, and its
// metrics. The example starts an in-process server (no daemon required),
// runs a traced count job, and then plays the three observability
// surfaces back:
//
//  1. the echoed X-Mochy-Trace id and the job/event stamps that carry it,
//  2. the span tree GET /v1/admin/traces retained for that id
//     (request span -> job.count -> stage.count -> pool.wait -> kernel
//     stages), and
//  3. the Prometheus exposition on GET /v1/metrics, filtered to the
//     request, job and span-duration families the traffic just moved.
//
// Point baseURL at a running `mochyd` to use it against a real daemon;
// add `-log-format text` there to watch the correlated log lines too.
package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"mochy/api"
	"mochy/client"
	"mochy/internal/generator"
	"mochy/internal/server"
)

func main() {
	// Stand up mochyd in-process. Against a real daemon this block is
	// replaced by baseURL := "http://localhost:8080".
	ts := httptest.NewServer(server.New(server.DefaultConfig()))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	g := generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 200, Edges: 900, Seed: 21,
	})
	if _, err := c.UploadGraph(ctx, "contact", g); err != nil {
		panic(err)
	}

	// 1. Trace one logical operation: mint an id, attach it to the
	// context, and every request the SDK sends under it carries the
	// X-Mochy-Trace header. The daemon adopts the id and threads it
	// through everything the operation touches.
	id := client.NewTraceID()
	tctx := client.WithTrace(ctx, id)
	fmt.Printf("trace id: %s\n", id)

	job, err := c.StartCount(tctx, "contact", api.CountRequest{Algorithm: api.AlgoExact})
	if err != nil {
		panic(err)
	}
	fmt.Printf("job %s started; job.trace=%q (same id, stamped on every NDJSON event)\n",
		job.ID, job.Trace)

	final, err := c.WaitJob(tctx, job.ID, nil)
	if err != nil {
		panic(err)
	}
	res, err := final.CountResult()
	if err != nil {
		panic(err)
	}
	fmt.Printf("job %s done: %.0f motif instances counted in %.1f ms\n\n",
		final.ID, res.Total, res.ElapsedMS)

	// 2. Replay the span tree the flight recorder retained for the id.
	// The ring holds the newest spans only (512 by default; mochyd's
	// -trace-buffer resizes it), and ?min= filters to slow traces when
	// hunting latency instead of a known id.
	var trace *api.Trace
	for i := 0; i < 100 && trace == nil; i++ {
		traces, err := c.Traces(ctx, 0, 0)
		if err != nil {
			panic(err)
		}
		for t := range traces.Traces {
			if traces.Traces[t].ID == id && len(traces.Traces[t].Spans) > 1 {
				trace = &traces.Traces[t]
			}
		}
		// A request span lands when its handler returns, a beat after
		// the client has read the response.
		time.Sleep(10 * time.Millisecond)
	}
	if trace == nil {
		panic("trace never appeared in the flight recorder")
	}
	fmt.Printf("flight recorder: trace %s, root %q, %.1f ms, %d spans\n",
		trace.ID, trace.Root, trace.DurationMS, len(trace.Spans))
	for _, sp := range trace.Spans {
		indent := "  "
		if sp.Parent != 0 {
			indent = "    "
		}
		fmt.Printf("%s%-32s %8.2f ms", indent, sp.Name, sp.DurationMS)
		for _, a := range sp.Attrs {
			fmt.Printf("  %s=%s", a.Key, a.Value)
		}
		fmt.Println()
	}

	// 3. The same traffic moved the metrics registry. Scrape and show
	// the families this example exercised; everything is standard
	// Prometheus text format, ready for a real scraper.
	body, err := c.Metrics(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nmetrics moved by this example:")
	for _, line := range strings.Split(body, "\n") {
		for _, prefix := range []string{
			"mochyd_jobs_done_total",
			"mochyd_span_duration_seconds_count",
			"mochyd_requests_total{route=\"POST /v1/graphs/{name}/count\"",
			"mochyd_http_responses_total{route=\"POST /v1/graphs/{name}/count\"",
			"mochyd_trace_spans_total",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
			}
		}
	}
}
