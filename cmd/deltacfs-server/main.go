// Command deltacfs-server runs the DeltaCFS cloud: a thin server that
// stores files, applies the incremental data clients push, and forwards
// updates to other clients sharing the namespace.
//
// Usage:
//
//	deltacfs-server [-addr :7420] [-tls] [-state state.db] [-snapshot 60s]
//	                [-journal dir] [-commit-window 5ms]
//
// With -state the server loads its durable state from the given file at
// startup (if present), snapshots to it periodically and on SIGINT/SIGTERM
// — the minimal durable-server design the paper leaves to future work.
// With -journal (defaults to <state>.journal when -state is set) every push
// is additionally recorded in a write-ahead journal before it is applied,
// and replayed over the snapshot at startup, so acknowledged pushes survive
// a crash between snapshots. -commit-window tunes the journal's group
// durability: pushes share one fsync per window (0 = fsync per push). The
// default comes from the benchall commit-window sweep (BENCH_6.json).
// With -tls the server generates an in-memory self-signed certificate.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7420", "listen address")
	useTLS := flag.Bool("tls", false, "serve TLS with a self-signed certificate")
	statePath := flag.String("state", "", "durable state file (empty = in-memory only)")
	snapshotEvery := flag.Duration("snapshot", time.Minute, "periodic snapshot interval (with -state)")
	journalDir := flag.String("journal", "", "push journal directory (default <state>.journal; \"off\" disables)")
	commitWindow := flag.Duration("commit-window", kvstore.DefaultCommitWindow,
		"journal group-commit window (0 = fsync per push)")
	flag.Parse()

	meter := metrics.NewCPUMeter(metrics.PC)
	srv := server.New(meter)

	if *statePath != "" {
		loaded, err := srv.LoadFile(*statePath)
		if err != nil {
			log.Fatalf("deltacfs-server: -state: %v", err)
		}
		if loaded {
			fmt.Printf("deltacfs-server: restored state from %s (%d files)\n",
				*statePath, len(srv.Files()))
		}
	}

	// The push journal closes the snapshot durability gap: snapshot, then
	// replay everything journaled since. Replay goes through Push, so
	// batches the snapshot already applied are absorbed by the restored
	// idempotency state.
	var journal *server.Journal
	if *journalDir == "" && *statePath != "" {
		*journalDir = *statePath + ".journal"
	}
	if *journalDir != "" && *journalDir != "off" {
		j, err := server.OpenJournal(*journalDir, *commitWindow)
		if err != nil {
			log.Fatalf("deltacfs-server: %v", err)
		}
		replayed, err := j.Replay(srv)
		if err != nil {
			log.Fatalf("deltacfs-server: journal replay: %v", err)
		}
		if replayed > 0 {
			fmt.Printf("deltacfs-server: replayed %d journaled pushes\n", replayed)
		}
		srv.SetJournal(j)
		journal = j
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("deltacfs-server: %v", err)
	}
	if *useTLS {
		serverConf, _, err := wire.SelfSignedTLS()
		if err != nil {
			log.Fatalf("deltacfs-server: tls: %v", err)
		}
		lis = tls.NewListener(lis, serverConf)
		fmt.Printf("deltacfs-server: TLS listening on %s (self-signed)\n", lis.Addr())
	} else {
		fmt.Printf("deltacfs-server: listening on %s\n", lis.Addr())
	}

	if *statePath != "" {
		save := func(reason string) {
			if err := srv.SaveFile(*statePath); err != nil {
				log.Printf("deltacfs-server: snapshot (%s): %v", reason, err)
				return
			}
			// The snapshot covers every journaled push up to its boundary;
			// drop them so the journal stays short and replay stays fast.
			if journal != nil {
				if _, err := journal.TruncateSnapshotted(); err != nil {
					log.Printf("deltacfs-server: journal truncate (%s): %v", reason, err)
				}
			}
		}
		go func() {
			for range time.Tick(*snapshotEvery) {
				save("periodic")
			}
		}()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			save("shutdown")
			if journal != nil {
				journal.Close()
			}
			lis.Close()
			os.Exit(0)
		}()
	}

	if err := wire.Serve(lis, srv); err != nil {
		log.Fatalf("deltacfs-server: %v", err)
	}
}
