package workload

import (
	"bsdtrace/internal/dist"
	"bsdtrace/internal/trace"
)

// user is one simulated person: a state machine that alternates idle
// periods with working sessions, and during a session performs actions at
// think-time intervals. Each user has a forked random stream so the
// populations are independent.
//
// A user always has exactly one continuation pending, the next action or
// the next session start, so the user itself is what the engine runs:
// sessionEnd is zero while the user is idle and the end of the current
// session otherwise.
type user struct {
	g          *generator
	uid        trace.UserID
	kind       userType
	src        *dist.Source
	seqno      int64
	sessionEnd trace.Time
}

// Run makes a user a sim.Runner: it starts a session or performs the
// session's next action.
func (u *user) Run() {
	if u.sessionEnd == 0 {
		u.startSession()
	} else {
		u.act()
	}
}

func (g *generator) startUsers() {
	total := g.prof.Users()
	for i := 1; i <= total; i++ {
		u := &user{
			g:    g,
			uid:  trace.UserID(i),
			kind: g.userKind(trace.UserID(i)),
			src:  g.src.Fork(),
		}
		// Stagger arrivals through the first hour.
		g.eng.AfterRunner(trace.Time(u.src.Exp(20*60_000))*trace.Millisecond, u)
	}
}

// loadFactor returns the relative activity level at virtual time t: 1.0
// at the afternoon peak, near-zero in the small hours. Idle gaps are
// divided by it, so a user is ~8x less likely to be working at 4 a.m.
// than at 3 p.m.
func loadFactor(t trace.Time) float64 {
	hour := float64(t%(24*trace.Hour)) / float64(trace.Hour)
	switch {
	case hour < 6:
		return 0.10
	case hour < 9:
		return 0.10 + (hour-6)/3*0.7 // morning ramp
	case hour < 12:
		return 0.85
	case hour < 17:
		return 1.0 // afternoon peak
	case hour < 21:
		return 0.55
	default:
		return 0.25
	}
}

// startSession begins a working session: log in (append to the login
// log), then issue actions until the session length elapses.
func (u *user) startSession() {
	g := u.g
	g.appendFile(u.src, g.k.NewProc(u.uid), g.img.loginLog, 72)
	// Sessions last tens of minutes.
	length := trace.Time(u.src.Exp(25*60_000)) * trace.Millisecond
	if length < 2*trace.Minute {
		length = 2 * trace.Minute
	}
	u.sessionEnd = g.eng.Now() + length
	u.act()
}

// act performs one action and schedules the next, or ends the session.
func (u *user) act() {
	g := u.g
	if g.eng.Now() >= u.sessionEnd {
		// Idle between sessions: typically an hour or so, stretched
		// overnight when the diurnal cycle is on.
		idle := trace.Time(u.src.Exp(70*60_000)) * trace.Millisecond
		if g.cfg.Diurnal {
			idle = trace.Time(float64(idle) / loadFactor(g.eng.Now()))
		}
		if idle < 5*trace.Minute {
			idle = 5 * trace.Minute
		}
		u.sessionEnd = 0
		g.eng.AfterRunner(idle, u)
		return
	}
	dur := u.action()
	// Think time between actions: a few seconds, bursty.
	think := trace.Time(u.src.Exp(11_000)) * trace.Millisecond
	g.eng.AfterRunner(dur+think, u)
}

// action runs one randomly chosen activity appropriate to the user type
// and returns roughly how long it occupies the user.
func (u *user) action() trace.Time {
	g := u.g
	u.seqno++
	src := u.src
	switch u.kind {
	case userDeveloper:
		switch pick(src, 26, 8, 6, 5, 10, 23, 3, 9, 16, 3, 3, 4) {
		case 0:
			return g.shellCommand(src, u.uid)
		case 1:
			return g.compile(src, u.uid, u.seqno)
		case 2:
			files := g.img.srcFiles[u.uid]
			if len(files) == 0 {
				return 0
			}
			return g.editSession(src, u.uid, files[src.Intn(len(files))].path, u.seqno)
		case 3:
			return g.runProgram(src, u.uid, u.seqno)
		case 4:
			return g.mailCheck(src, u.uid)
		case 5:
			adm := g.img.admin[src.Intn(len(g.img.admin))]
			return g.adminLookup(src, g.k.NewProc(u.uid), adm, adminSeeks(src), 0.35)
		case 6:
			return g.link(src, u.uid)
		case 7:
			return g.mailDeliver(src, u.uid, trace.UserID(1+src.Intn(g.prof.Users())))
		case 8:
			return g.rwhoCheck(src, u.uid)
		case 9:
			return g.debugSession(src, u.uid)
		case 10:
			return g.adminScan(src, u.uid)
		default:
			return g.browseArchive(src, u.uid)
		}
	case userOffice:
		switch pick(src, 22, 8, 7, 15, 25, 11, 16, 5, 4) {
		case 0:
			return g.shellCommand(src, u.uid)
		case 1:
			files := g.img.docFiles[u.uid]
			if len(files) == 0 {
				return 0
			}
			return g.editSession(src, u.uid, files[src.Intn(len(files))], u.seqno)
		case 2:
			return g.formatDoc(src, u.uid, u.seqno)
		case 3:
			return g.mailCheck(src, u.uid)
		case 4:
			adm := g.img.admin[src.Intn(len(g.img.admin))]
			return g.adminLookup(src, g.k.NewProc(u.uid), adm, adminSeeks(src), 0.35)
		case 5:
			return g.mailDeliver(src, u.uid, trace.UserID(1+src.Intn(g.prof.Users())))
		case 6:
			return g.rwhoCheck(src, u.uid)
		case 7:
			return g.adminScan(src, u.uid)
		default:
			return g.browseArchive(src, u.uid)
		}
	default: // userCAD
		switch pick(src, 18, 12, 8, 5, 9, 20, 11, 6, 3) {
		case 0:
			return g.shellCommand(src, u.uid)
		case 1:
			return g.cadRun(src, u.uid, u.seqno)
		case 2:
			files := g.img.decks[u.uid]
			if len(files) == 0 {
				return 0
			}
			return g.editSession(src, u.uid, files[src.Intn(len(files))].path, u.seqno)
		case 3:
			return g.compile(src, u.uid, u.seqno)
		case 4:
			return g.mailCheck(src, u.uid)
		case 5:
			adm := g.img.admin[src.Intn(len(g.img.admin))]
			return g.adminLookup(src, g.k.NewProc(u.uid), adm, adminSeeks(src), 0.35)
		case 6:
			return g.rwhoCheck(src, u.uid)
		case 7:
			return g.runProgram(src, u.uid, u.seqno)
		case 8:
			return g.debugSession(src, u.uid)
		default:
			return g.browseArchive(src, u.uid)
		}
	}
}

// pick chooses an index with the given relative weights.
func pick(src *dist.Source, weights ...float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := src.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
