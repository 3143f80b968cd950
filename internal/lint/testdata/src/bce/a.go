// Package bce fixtures for the bounds-check gate: one kernel over its
// budget, one within it, one with a malformed count.
package bce

//stressvet:bce 0
func overBudget(s []float64, i int) float64 {
	return s[i] + s[i+1]
}

//stressvet:bce 4
func withinBudget(s []float64, i int) float64 {
	return s[i] + s[i+1]
}

//stressvet:bce many
func malformed(s []float64, i int) float64 {
	return s[i]
}

// unannotated keeps its checks unexamined.
func unannotated(s []float64, i int) float64 {
	return s[i]
}
