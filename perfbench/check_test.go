package main

import (
	"errors"
	"testing"

	"phasebeat/internal/core"
	"phasebeat/internal/fleet"
)

var (
	testScene = &scene{breathing: []float64{15}}
	twoScene  = &scene{breathing: []float64{11, 17}}
)

func update(seq uint64, breathing, heart float64, h core.Health) fleet.Snapshot {
	return fleet.Snapshot{Seq: seq, Update: core.Update{
		Result: &core.Result{
			Breathing: &core.BreathingEstimate{RateBPM: breathing},
			Heart:     &core.HeartEstimate{RateBPM: heart},
		},
		Health: h,
	}}
}

// feed runs a stream of snapshots through a checker that expects n
// updates and returns the failed fraction.
func feed(t *testing.T, n uint64, snaps ...fleet.Snapshot) float64 {
	t.Helper()
	c := updateChecker{sc: testScene}
	for _, s := range snaps {
		c.observe(s)
	}
	c.finish(n)
	return failedFrac(int(n), c.failed)
}

func TestCheckerPassesCorrectStream(t *testing.T) {
	if f := feed(t, 2, update(1, 15.4, 71, core.Health{}), update(2, 14.8, 66, core.Health{})); f != 0 {
		t.Fatalf("failed_frac = %v for a correct stream", f)
	}
}

func TestCheckerFailsWrongBPM(t *testing.T) {
	if f := feed(t, 2, update(1, 15.1, 70, core.Health{}), update(2, 19, 70, core.Health{})); f <= 0 {
		t.Fatal("a breathing rate 4 bpm off the truth did not count as failed")
	}
	if f := feed(t, 1, update(1, 15, 20, core.Health{})); f <= 0 {
		t.Fatal("a heart rate below the heart band did not count as failed")
	}
}

func TestCheckerFailsSkippedSeq(t *testing.T) {
	if f := feed(t, 3, update(1, 15, 70, core.Health{}), update(3, 15, 70, core.Health{})); f <= 0 {
		t.Fatal("a gap in Seq did not count as failed")
	}
	if f := feed(t, 3, update(1, 15, 70, core.Health{}), update(2, 15, 70, core.Health{})); f <= 0 {
		t.Fatal("an update that never arrived did not count as failed")
	}
}

func TestCheckerFailsShedPackets(t *testing.T) {
	shed := core.Health{PacketsDropped: 12}
	if f := feed(t, 2, update(1, 15, 70, core.Health{}), update(2, 15, 70, shed)); f <= 0 {
		t.Fatal("an update whose window shed packets did not count as failed")
	}
	replaced := core.Health{UpdatesReplaced: 1}
	if f := feed(t, 2, update(1, 15, 70, core.Health{}), update(2, 15, 70, replaced)); f <= 0 {
		t.Fatal("a replaced update did not count as failed")
	}
}

func TestCheckerFailsErroredUpdate(t *testing.T) {
	bad := update(1, 15, 70, core.Health{})
	bad.Update.Err = errors.New("no stationary segment")
	if f := feed(t, 1, bad); f <= 0 {
		t.Fatal("an errored update did not count as failed")
	}
}

func TestCheckerMatchesTwoPersonsAfterSorting(t *testing.T) {
	multi := func(rates ...float64) error {
		return checkResult(&core.Result{MultiPerson: &core.MultiPersonEstimate{RatesBPM: rates}}, nil, twoScene)
	}
	if err := multi(17.4, 10.8); err != nil {
		t.Fatalf("correct two-person estimate: %v", err)
	}
	if multi(11, 22) == nil {
		t.Fatal("a second person 5 bpm off the truth passed")
	}
	if multi(11) == nil {
		t.Fatal("one rate for two persons passed")
	}
	if checkResult(&core.Result{Breathing: &core.BreathingEstimate{RateBPM: 11}}, nil, twoScene) == nil {
		t.Fatal("a one-person estimate for a two-person bed passed")
	}
}

func TestCheckTrack(t *testing.T) {
	if err := checkTrack(core.TrackPoint{BreathingBPM: 15.2, HeartBPM: 72, HasHeart: true}, testScene); err != nil {
		t.Fatalf("correct window: %v", err)
	}
	if checkTrack(core.TrackPoint{BreathingBPM: 7.5, HeartBPM: 70, HasHeart: true}, testScene) == nil {
		t.Fatal("a halved breathing rate passed")
	}
	if checkTrack(core.TrackPoint{Err: errors.New("motion")}, testScene) == nil {
		t.Fatal("an errored window passed")
	}
}
