package main

import (
	"testing"
	"time"
)

func TestScheduleIsFixedRateAndIndependentOfTheSystem(t *testing.T) {
	due := schedule(80, 161)
	if due[0] != 0 || due[80] != time.Second || due[160] != 2*time.Second {
		t.Errorf("80/s schedule has due[0]=%v due[80]=%v due[160]=%v", due[0], due[80], due[160])
	}
	for i := 1; i < len(due); i++ {
		if gap := due[i] - due[i-1]; gap < 12499*time.Microsecond || gap > 12501*time.Microsecond {
			t.Fatalf("gap %d is %v, want 12.5ms", i, gap)
		}
	}
}

func TestLatenessCountsSendsMoreThanAMillisecondBehind(t *testing.T) {
	t0 := time.Now()
	var l lateness
	for _, behind := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 1500 * time.Microsecond, 7 * time.Millisecond, -time.Millisecond} {
		l.observe(t0, t0.Add(behind))
	}
	if l.sends != 6 || l.late != 2 || l.max != 7*time.Millisecond {
		t.Errorf("lateness = %+v, want 6 sends, 2 late, max 7ms", l)
	}
	if got := l.share(); got != 2.0/6 {
		t.Errorf("late share = %v", got)
	}
	if (lateness{}).share() != 0 {
		t.Error("an idle generator has a late share")
	}
}
