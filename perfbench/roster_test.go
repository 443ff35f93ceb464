package main

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"phasebeat/internal/core"
)

// rosterCheckSeconds is the longest bed stream the roster check covers:
// a ward bed's stream is at most a window, a stride, the archive's six
// strides of stagger and the measured phase long.
const rosterCheckSeconds = 150.0

// TestRosters re-checks every roster scene the way a ward bed replays
// it: from every start the benchmark may draw, a Monitor with the ward's
// template and the bed's person count is fed the whole stream without
// shedding, and every update must pass the output check. The Monitor is
// deterministic, so a ward bed that replays a checked scene from a
// checked start sees exactly the checked updates. It takes several
// minutes; set PERFBENCH_CHECK_ROSTERS=1 to run it.
func TestRosters(t *testing.T) {
	if os.Getenv("PERFBENCH_CHECK_ROSTERS") == "" {
		t.Skip("set PERFBENCH_CHECK_ROSTERS=1 to re-check the scene rosters")
	}
	type job struct{ persons, scene int }
	var jobs []job
	for _, persons := range []int{1, 2} {
		for i := range rosters[persons].scenes {
			jobs = append(jobs, job{persons, i})
		}
	}
	results := make([][]string, len(jobs))
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = checkRosterScene(t, jobs[i].persons, jobs[i].scene)
			}
		}()
	}
	wg.Wait()
	for i, fails := range results {
		j := jobs[i]
		idx := rosters[j.persons].scenes[j.scene]
		if len(fails) > 0 {
			t.Errorf("%d-person roster scene %d (sequence index %d): %d failed updates, first %v",
				j.persons, j.scene, idx, len(fails), fails[0])
		} else {
			t.Logf("%d-person roster scene %d (sequence index %d): passed", j.persons, j.scene, idx)
		}
	}
}

// checkRosterScene replays roster scene i of the persons roster from
// every start and returns the failed updates.
func checkRosterScene(t *testing.T, persons, i int) []string {
	spec := rosterScene(persons, i, float64(maxOffset)/sampleRate+rosterCheckSeconds)
	sc, err := makeScene(spec.seed, spec.seconds, spec.persons)
	if err != nil {
		t.Error(err)
		return nil
	}
	var fails []string
	for s := 0; s < startCount; s++ {
		offset := s * startStep
		b := &bed{scene: sc, offset: offset}
		mc := core.DefaultMonitorConfig()
		mc.NumAntennas = antennas
		mc.Persons = persons
		mon, err := core.NewMonitor(mc)
		if err != nil {
			t.Error(err)
			return nil
		}
		n := int(rosterCheckSeconds * sampleRate)
		done := make(chan []string)
		go func() {
			var fs []string
			for k := uint64(1); k <= updatesAfter(n); k++ {
				u := <-mon.Updates()
				if err := checkResult(u.Result, u.Err, sc); err != nil {
					fs = append(fs, fmt.Sprintf("start %d s, update at %.1f s: %v", offset/startStep, u.Time, err))
				}
			}
			done <- fs
		}()
		for k := 0; k < n; k++ {
			mon.Ingest(b.packet(k))
		}
		fails = append(fails, <-done...)
		mon.Close()
	}
	return fails
}
