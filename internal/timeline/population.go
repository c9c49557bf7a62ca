package timeline

import (
	"sqlb/internal/metrics"
	"sqlb/internal/model"
)

// FillUtilization fills the participant-state gauges of a snapshot from
// the population at the given clock: the utilization mean/fairness/Gini
// over alive providers, the per-capacity-class utilization means behind
// the dashboard bars, and the alive counts. Shared by the sim engine's
// sample hook and the serving driver's interval snapshots; it only reads
// provider state, so calling it can never perturb a run.
func FillUtilization(s *Snapshot, pop *model.Population, now float64) {
	var (
		utils     []float64
		classSum  [3]float64
		classN    [3]int
		aliveCons int
	)
	for _, p := range pop.Providers {
		if !p.Alive() {
			continue
		}
		u := p.MeasuredLoad(now)
		utils = append(utils, u)
		classSum[p.CapClass] += u
		classN[p.CapClass]++
	}
	for _, c := range pop.Consumers {
		if c.Alive() {
			aliveCons++
		}
	}
	sum := metrics.Summarize(utils)
	s.UtilMean = sum.Mean
	s.UtilFairness = sum.Fairness
	s.UtilGini = metrics.Gini(utils)
	classMean := func(lvl int) float64 {
		if classN[lvl] == 0 {
			return 0
		}
		return classSum[lvl] / float64(classN[lvl])
	}
	s.UtilClassLow = classMean(int(model.Low))
	s.UtilClassMed = classMean(int(model.Medium))
	s.UtilClassHigh = classMean(int(model.High))
	s.AliveProviders = float64(len(utils))
	s.AliveConsumers = float64(aliveCons)
}
