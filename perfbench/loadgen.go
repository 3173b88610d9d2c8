package main

import (
	"time"
)

// schedule is an open-loop arrival schedule: request i is due at
// start + offset + i*period, whatever happened to earlier requests.
type schedule struct {
	start          time.Time
	offset, period time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(s.offset + time.Duration(i)*s.period)
}

// count returns how many requests fall due inside [start, start+window).
func (s schedule) count(window time.Duration) int {
	if window <= s.offset {
		return 0
	}
	return int((window - s.offset + s.period - 1) / s.period)
}

// arrival is one request handed from the generator to a connection.
type arrival struct {
	i   int
	due time.Time
}

// clock lets the self-tests drive the generator without sleeping.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// dispatch hands every arrival due inside the window to ch at its due
// time and closes ch. It returns how late each hand-off ran behind its
// due time: the generator's own lag, which must stay far below the
// latencies it measures for the run to be valid. ch must be able to
// buffer every arrival (see schedule.count), so a slow connection delays
// requests — which is measured from their due times — but never the
// generator.
func dispatch(s schedule, window time.Duration, ch chan<- arrival, c clock) []time.Duration {
	defer close(ch)
	n := s.count(window)
	late := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := s.due(i)
		if wait := due.Sub(c.now()); wait > 0 {
			c.sleep(wait)
		}
		late = append(late, c.now().Sub(due))
		ch <- arrival{i: i, due: due}
	}
	return late
}
