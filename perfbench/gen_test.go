package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestReplayInputDeterministic(t *testing.T) {
	a, err := synthReplay(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthReplay(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.csv, b.csv) || a.events != b.events || a.submits != b.submits || a.beyondHorizon != b.beyondHorizon {
		t.Fatal("same seed, different replay input")
	}
	if a.submits != replayPods || a.beyondHorizon != 0 {
		t.Errorf("%d pods, %d past the horizon; want %d, none past it", a.submits, a.beyondHorizon, replayPods)
	}
	c, err := synthReplay(4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.csv, c.csv) {
		t.Error("seeds 3 and 4 gave the same trace")
	}
}

func TestWhatifScheduleDeterministic(t *testing.T) {
	a, b := whatifSchedule(5, 400), whatifSchedule(5, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different query order")
	}
	if reflect.DeepEqual(a, whatifSchedule(6, 400)) {
		t.Error("seeds 5 and 6 gave the same query order")
	}
	count := map[string]int{}
	for _, k := range a {
		count[k]++
	}
	for _, k := range whatifKinds {
		if count[k] != 100 {
			t.Errorf("%d %s queries of 400, want equal shares", count[k], k)
		}
	}
	if got := len(whatifSchedule(5, 401)); got != 404 {
		t.Errorf("401 queries round up to %d, want 404", got)
	}
	vs := whatifVariants(5)
	if !reflect.DeepEqual(vs, whatifVariants(5)) || reflect.DeepEqual(vs, whatifVariants(6)) {
		t.Error("query variants are not a function of the seed")
	}
	draws := map[int]int{}
	for _, i := range variantOrder(a, vs) {
		if vs[i].kind == "add-pods" {
			draws[i]++
		}
	}
	if len(draws) != whatifPodDraws {
		t.Errorf("add-pods queries use %d pod draws, want %d", len(draws), whatifPodDraws)
	}
}
