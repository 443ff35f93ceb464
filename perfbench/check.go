package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"phasebeat/internal/core"
	"phasebeat/internal/fleet"
)

// Output tolerances, taken from the paper and fixed here:
//
//   - breathing: 10% of the true rate, for every person. The paper's
//     breathing errors reach 0.85 bpm (Fig. 11), inside 10% at resting
//     rates, and its accuracy figures (Figs. 13 and 14, one and several
//     persons) stay above 1-|err|/truth = 0.90. A two-person estimate is
//     matched to the truth after sorting both, as Fig. 14 scores it.
//   - heart: a one-person estimate must carry a heart rate inside the
//     paper's heart band, 0.625-2.5 Hz. Its accuracy is not checked per
//     window: when a breathing harmonic lands near the heart line the
//     method locks onto it (EXPERIMENTS.md, Fig. 12: 17% of trials fail
//     grossly), so a per-window bound would fail runs on a known limit of
//     the method, not on a change to the program. The paper measures
//     heart rate for one person only, so a two-person bed's heart output
//     is not checked.
const (
	breathTolFrac = 0.10
	heartMinBPM   = 0.625 * 60
	heartMaxBPM   = 2.5 * 60
)

// checkRates compares one estimate with the scene truth: breathing holds
// one rate per person in any order, and heart is NaN when the estimate
// carries no heart rate.
func checkRates(breathing []float64, heart float64, sc *scene) error {
	if len(breathing) != len(sc.breathing) {
		return fmt.Errorf("%d breathing rates for %d persons", len(breathing), len(sc.breathing))
	}
	got := append([]float64(nil), breathing...)
	sort.Float64s(got)
	for i, truth := range sc.breathing {
		if !(math.Abs(got[i]-truth) <= breathTolFrac*truth) {
			return fmt.Errorf("breathing %.2f bpm, truth %.2f", got, sc.breathing)
		}
	}
	if len(sc.breathing) == 1 && !(heart >= heartMinBPM && heart <= heartMaxBPM) {
		return fmt.Errorf("heart %.2f bpm outside the heart band", heart)
	}
	return nil
}

// checkResult checks one Monitor update's result: a one-person bed's
// Breathing estimate, or a two-person bed's MultiPerson estimate.
func checkResult(res *core.Result, err error, sc *scene) error {
	if err != nil {
		return fmt.Errorf("update errored: %w", err)
	}
	var rates []float64
	switch {
	case res == nil:
	case len(sc.breathing) == 1 && res.Breathing != nil:
		rates = []float64{res.Breathing.RateBPM}
	case len(sc.breathing) > 1 && res.MultiPerson != nil:
		rates = res.MultiPerson.RatesBPM
	}
	if rates == nil {
		return errors.New("update has no breathing estimate")
	}
	heart := math.NaN()
	if res.Heart != nil {
		heart = res.Heart.RateBPM
	}
	return checkRates(rates, heart, sc)
}

// checkTrack checks one TrackRates window of a one-person recording.
func checkTrack(p core.TrackPoint, sc *scene) error {
	if p.Err != nil {
		return fmt.Errorf("window errored: %w", p.Err)
	}
	heart := math.NaN()
	if p.HasHeart {
		heart = p.HeartBPM
	}
	return checkRates([]float64{p.BreathingBPM}, heart, sc)
}

// updateChecker follows one bed's update stream as a subscriber sees it.
// Every published update must arrive (no gap in Seq), carry a correct
// estimate, and come from a window that shed no packets and replaced no
// update.
type updateChecker struct {
	sc      *scene
	lastSeq uint64
	last    core.Health
	// failed counts failed operations; failures keeps the first few
	// reasons for the report.
	failed   int
	failures []string
}

func (c *updateChecker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 4 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// observe checks one snapshot returned by Session.Wait.
func (c *updateChecker) observe(snap fleet.Snapshot) {
	for s := c.lastSeq + 1; s < snap.Seq; s++ {
		c.fail("seq %d: update missed", s)
	}
	c.lastSeq = snap.Seq
	h := snap.Update.Health
	if h.PacketsDropped > c.last.PacketsDropped {
		c.fail("seq %d: window shed %d packets", snap.Seq, h.PacketsDropped-c.last.PacketsDropped)
	} else if h.UpdatesReplaced > c.last.UpdatesReplaced {
		c.fail("seq %d: %d updates replaced", snap.Seq, h.UpdatesReplaced-c.last.UpdatesReplaced)
	} else if err := checkResult(snap.Update.Result, snap.Update.Err, c.sc); err != nil {
		c.fail("seq %d: %v", snap.Seq, err)
	}
	c.last = h
}

// finish counts the updates that never arrived.
func (c *updateChecker) finish(expected uint64) {
	for s := c.lastSeq + 1; s <= expected; s++ {
		c.fail("seq %d: never published", s)
	}
}
