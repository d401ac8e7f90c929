// Command gqa-shard serves one shard of a frozen graph over the shard
// RPC protocol. It loads part s of a K ≥ 2 export (`gqa-gen frozen -shard
// s/K`; a K=1 frozen snapshot is refused), listens on a TCP address, and
// answers the coordinator's read calls — adjacency spans, membership
// probes, role bits, and predicate-major groups for the scatter-gather
// merge. One
// gqa-shard process per shard plus a gqa-serve coordinator started with
// -shard-addrs is the multi-process deployment of the sharded store.
//
// Usage:
//
//	gqa-shard -part kb.0of4.shard [-addr 127.0.0.1:7401]
//
// The process logs "listening on <addr>" once ready and shuts down
// cleanly on SIGINT/SIGTERM (stops accepting, severs connections, waits
// for in-flight handlers).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"gqa/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "TCP listen address")
	partPath := flag.String("part", "", "shard part file from `gqa-gen frozen -shard s/K` (required)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("gqa-shard: ")

	if *partPath == "" {
		fmt.Fprintln(os.Stderr, "gqa-shard: -part is required")
		os.Exit(2)
	}
	f, err := os.Open(*partPath)
	if err != nil {
		log.Fatal(err)
	}
	part, err := store.LoadShardPart(f)
	f.Close()
	if err != nil {
		log.Fatalf("load %s: %v", *partPath, err)
	}
	log.Printf("loaded shard %d/%d (gen %d, %d terms)",
		part.Shard(), part.K(), part.Generation(), part.NumTerms())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := store.NewShardServer(part)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	select {
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("bye")
}
