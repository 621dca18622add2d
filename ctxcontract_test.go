package mce

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
)

// The non-context entry points are thin delegates to their Context variants.
// These tests pin that contract: a background context changes nothing, and a
// cancelled context aborts before work ships.

func cliqueSet(cliques [][]int32) map[string]bool {
	set := make(map[string]bool, len(cliques))
	for _, c := range cliques {
		set[fmt.Sprint(c)] = true
	}
	return set
}

func TestEnumerateContextBackgroundMatchesEnumerate(t *testing.T) {
	g := GenerateSocialNetwork(300, 4, 0.6, 61)
	plain, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := EnumerateContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Cliques, ctxed.Cliques) {
		t.Fatalf("EnumerateContext(Background) found %d cliques, Enumerate found %d; sets equal=%v",
			len(ctxed.Cliques), len(plain.Cliques),
			reflect.DeepEqual(cliqueSet(plain.Cliques), cliqueSet(ctxed.Cliques)))
	}
}

func TestEnumerateStreamContextBackgroundMatchesStream(t *testing.T) {
	g := GenerateSocialNetwork(300, 4, 0.6, 67)
	collect := func(stream func(func([]int32, int)) error) ([][]int32, error) {
		var out [][]int32
		err := stream(func(c []int32, _ int) {
			out = append(out, append([]int32(nil), c...))
		})
		return out, err
	}
	plain, err := collect(func(emit func([]int32, int)) error {
		_, err := EnumerateStream(g, emit)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := collect(func(emit func([]int32, int)) error {
		_, err := EnumerateStreamContext(context.Background(), g, emit)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ctxed) {
		t.Fatalf("stream with background context emitted %d cliques, plain emitted %d",
			len(ctxed), len(plain))
	}
}

// TestEnumerateContextCancelledBeforeDial: the dial phase runs under the
// caller's context, so a cancelled context aborts before any worker
// connection is attempted — whether the address list points at live workers
// or at an address nothing listens on, where a dial that ignored the context
// would report the dead worker instead.
func TestEnumerateContextCancelledBeforeDial(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	g := GenerateSocialNetwork(150, 4, 0.6, 71)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range [][]string{addrs, {dead}} {
		_, err = EnumerateContext(ctx, g, WithWorkers(workers...))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("EnumerateContext with workers %v err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestEnumerateDistributedContextMatchesLocal runs the full public pipeline
// through live TCP workers under a background context and checks the clique
// family against the purely local run.
func TestEnumerateDistributedContextMatchesLocal(t *testing.T) {
	addrs, stop, err := StartLocalWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := GenerateSocialNetwork(400, 5, 0.5, 73)
	local, err := Enumerate(g)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := EnumerateContext(context.Background(), g, WithBlockRatio(0.5), WithWorkers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cliqueSet(local.Cliques), cliqueSet(dist.Cliques)) {
		t.Fatalf("distributed context run found %d cliques, local found %d",
			len(dist.Cliques), len(local.Cliques))
	}
}
