package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// TestMain doubles as the worker-subprocess entry point: a split load run
// re-invokes this binary with the worker argument, exactly as cmd/benchall
// does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "__loadworker" {
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// In-process smoke: a small sharing-group herd over real TCP converges and
// the server sees every client as a concurrent connection.
func TestRunInProcess(t *testing.T) {
	res, err := Run(Config{Clients: 48, GroupSize: 4, OpsPerClient: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Errors != 0 || res.Mismatches != 0 {
		t.Fatalf("run did not converge: %+v", res)
	}
	if res.PeakConns != 48 {
		t.Fatalf("PeakConns = %d, want 48", res.PeakConns)
	}
	if res.WorkerProcs != 0 {
		t.Fatalf("WorkerProcs = %d, want 0 (in-process)", res.WorkerProcs)
	}
	if res.Ops != 48*6 || res.OpsPerSec <= 0 || res.P99Micros < res.P50Micros {
		t.Fatalf("implausible measurements: %+v", res)
	}
}

// The journal integration: a journaled run counts fsyncs and still
// converges.
func TestRunJournaled(t *testing.T) {
	res, err := Run(Config{
		Clients: 8, OpsPerClient: 4,
		JournalDir: t.TempDir(), CommitWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("journaled run did not converge: %+v", res)
	}
	if res.Fsyncs == 0 {
		t.Fatal("journaled run recorded no fsyncs")
	}
}

// The worker protocol end to end over pipes (no subprocess): WorkerMain
// stages its herd against a live server, reports ready, waits for the go
// token, and returns a result — the exact exchange runViaWorkers drives.
func TestWorkerMainProtocol(t *testing.T) {
	srv := server.New(nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go wire.ServeWith(lis, srv, wire.ServeConfig{})

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- WorkerMain(inR, outW) }()

	enc := json.NewEncoder(inW)
	if err := enc.Encode(&workerConfig{
		Addr: lis.Addr().String(), BaseIndex: 100,
		Clients: 6, GroupSize: 3, OpsPerClient: 4,
		PayloadBytes: 64, DialParallel: 4, PollEvery: 2,
	}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(outR)
	line, err := br.ReadString('\n')
	if err != nil || line != workerReady+"\n" {
		t.Fatalf("ready line = %q, %v", line, err)
	}
	if err := enc.Encode(workerGo); err != nil {
		t.Fatal(err)
	}
	var wr workerResult
	if err := json.NewDecoder(br).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("WorkerMain: %v", err)
	}
	if wr.Errors != 0 || wr.Mismatches != 0 {
		t.Fatalf("worker herd failed: %+v", wr)
	}
	if len(wr.LatsMicros) != 6*4 {
		t.Fatalf("got %d latencies, want %d", len(wr.LatsMicros), 6*4)
	}
}

// A split run through real worker subprocesses: force the split path, then
// verify the aggregated result still converges and reports the worker
// count.
func TestRunViaWorkerSubprocess(t *testing.T) {
	forceSplit = true
	defer func() { forceSplit = false }()
	res, err := Run(Config{
		Clients: 24, GroupSize: 4, OpsPerClient: 4,
		WorkerCmd: []string{os.Args[0], "__loadworker"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Errors != 0 {
		t.Fatalf("split run did not converge: %+v", res)
	}
	if res.WorkerProcs < 1 {
		t.Fatalf("WorkerProcs = %d, want >= 1", res.WorkerProcs)
	}
	if res.PeakConns != 24 {
		t.Fatalf("PeakConns = %d, want 24", res.PeakConns)
	}
}
