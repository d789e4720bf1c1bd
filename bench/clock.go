package main

import "time"

// now is the benchmark's only wall-clock read: every host-time figure it
// reports is a difference of two of these.
func now() time.Time {
	//f2tree:wallclock the benchmark times the simulator from outside; no reading is ever passed into a simulation
	return time.Now()
}

// since is the host time elapsed from t.
func since(t time.Time) time.Duration { return now().Sub(t) }

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
