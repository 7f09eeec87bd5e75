// Wire protocol for /v1/conform: JSON message types shared by the serve
// handler and the client driver, plus Drive, the session loop a client
// runs against a conformance server. The protocol is deliberately
// dumb — the server plans and judges; the client only evaluates ground
// programs it is handed and reports what it saw.
package conform

import (
	"fmt"

	"algspec/internal/term"
)

// Tree is the wire rendering of a ground program: an explicit syntax
// tree so clients need no parser. Leaves are operations with no
// arguments, atoms ('a), or the distinguished error.
type Tree struct {
	// Kind is "op", "atom" or "error".
	Kind string `json:"kind"`
	// Sym is the operation name or atom spelling.
	Sym string `json:"sym,omitempty"`
	// Sort is the node's sort, as declared in the spec.
	Sort string `json:"sort"`
	Args []Tree `json:"args,omitempty"`
}

// EncodeTree renders a ground term for the wire.
func EncodeTree(t *term.Term) Tree {
	switch t.Kind {
	case term.Atom:
		return Tree{Kind: "atom", Sym: t.Sym, Sort: string(t.Sort)}
	case term.Err:
		return Tree{Kind: "error", Sort: string(t.Sort)}
	default:
		out := Tree{Kind: "op", Sym: t.Sym, Sort: string(t.Sort)}
		for _, a := range t.Args {
			out.Args = append(out.Args, EncodeTree(a))
		}
		return out
	}
}

// ProgramMsg is one program as served to the client: the tree to
// evaluate plus its surface syntax for logs.
type ProgramMsg struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
	Sort string `json:"sort"`
	Tree Tree   `json:"tree"`
}

// Msg renders a planned program for the wire.
func Msg(p *Program) ProgramMsg {
	return ProgramMsg{ID: p.ID, Text: p.Text, Sort: string(p.Sort), Tree: EncodeTree(p.Term)}
}

// Request is the single request envelope for POST /v1/conform,
// discriminated by Action.
type Request struct {
	// Action is "open", "observe" or "close".
	Action string `json:"action"`

	// open fields.
	Spec string `json:"spec,omitempty"`
	// Version optionally pins a registry spec version ("sha256:..."); ""
	// means the server's current head for Spec.
	Version string `json:"version,omitempty"`
	// ObserveSorts lists extra sorts the client can report values of,
	// beyond Bool and atom/parameter sorts (see PlanConfig.ObserveSorts).
	ObserveSorts []string `json:"observe_sorts,omitempty"`
	N            int      `json:"n,omitempty"`
	Depth        int      `json:"depth,omitempty"`
	Seed         int64    `json:"seed,omitempty"`

	// observe/close fields.
	Session string `json:"session,omitempty"`
	// Round must echo the round the observations answer; the server
	// replays its previous response when a round is re-sent (retry after
	// a fault) and rejects skew with 409.
	Round        int           `json:"round,omitempty"`
	Observations []Observation `json:"observations,omitempty"`
}

// FailureMsg mirrors Failure on the wire.
type FailureMsg struct {
	Axiom   string `json:"axiom,omitempty"`
	Program string `json:"program"`
	Want    string `json:"want"`
	Got     string `json:"got"`
}

// Response is the server's answer to any conform request.
type Response struct {
	Session string `json:"session,omitempty"`
	Spec    string `json:"spec,omitempty"`
	Version string `json:"version,omitempty"`
	Round   int    `json:"round,omitempty"`
	// Programs are the probes awaiting observation (empty when Done).
	Programs []ProgramMsg `json:"programs,omitempty"`
	// Skipped counts planned probes dropped for lack of a constructor
	// normal form; Capped counts probes dropped by the planner's batch
	// cap (both reported on open).
	Skipped int `json:"skipped,omitempty"`
	Capped  int `json:"capped,omitempty"`

	Done    bool `json:"done,omitempty"`
	Pass    bool `json:"pass,omitempty"`
	Checked int  `json:"checked,omitempty"`
	// Failures echoes the first few disagreements; FailureCount is exact.
	FailureCount   int          `json:"failure_count,omitempty"`
	Failures       []FailureMsg `json:"failures,omitempty"`
	Counterexample *FailureMsg  `json:"counterexample,omitempty"`
	ShrinkSteps    int          `json:"shrink_steps,omitempty"`

	Closed bool `json:"closed,omitempty"`
}

// FailureMsgOf renders a failure for the wire (nil in, nil out).
func FailureMsgOf(f *Failure) *FailureMsg {
	if f == nil {
		return nil
	}
	return &FailureMsg{Axiom: f.Axiom, Program: f.Program, Want: f.Want, Got: f.Got}
}

// HTTPError is a non-2xx answer from the conform endpoint, surfaced to
// Drive callers so they can distinguish engine faults (422/504) from
// protocol bugs (400/404/409).
type HTTPError struct {
	Status int
	Body   string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("conform: server returned %d: %s", e.Status, e.Body)
}

// Poster sends one conform request and decodes the response; non-2xx
// answers must come back as *HTTPError. The loadgen client and the CLI
// provide HTTP posters; tests may post in-process.
type Poster func(req *Request) (*Response, error)

// Evaluator is the client side of a session: an implementation under
// test that can evaluate a served program tree to an observation.
type Evaluator interface {
	// Observe evaluates one program and reports the observation. The
	// reported Value must be surface syntax parseable by the server
	// ("succ(zero)", "true", "'a"); set IsError for the distinguished
	// error.
	Observe(p ProgramMsg) (Observation, error)
}

// Drive runs one full conformance session against a server: open,
// observe rounds until done, then close. It returns the verdict
// assembled from the final response. An evaluator error abandons the
// session (the server's TTL reaps it).
func Drive(post Poster, open *Request, eval Evaluator) (*Verdict, error) {
	openReq := *open
	openReq.Action = "open"
	resp, err := post(&openReq)
	if err != nil {
		return nil, err
	}
	session := resp.Session
	for !resp.Done {
		obs := make([]Observation, 0, len(resp.Programs))
		for _, p := range resp.Programs {
			o, oerr := eval.Observe(p)
			if oerr != nil {
				return nil, fmt.Errorf("conform: evaluating %s: %w", p.Text, oerr)
			}
			o.ID = p.ID
			obs = append(obs, o)
		}
		resp, err = post(&Request{Action: "observe", Session: session, Round: resp.Round, Observations: obs})
		if err != nil {
			return nil, err
		}
	}
	v := &Verdict{
		Pass:         resp.Pass,
		Checked:      resp.Checked,
		FailureCount: resp.FailureCount,
		ShrinkSteps:  resp.ShrinkSteps,
	}
	for _, f := range resp.Failures {
		v.Failures = append(v.Failures, Failure{Axiom: f.Axiom, Program: f.Program, Want: f.Want, Got: f.Got})
	}
	if f := resp.Counterexample; f != nil {
		v.Counterexample = &Failure{Axiom: f.Axiom, Program: f.Program, Want: f.Want, Got: f.Got}
	}
	if _, cerr := post(&Request{Action: "close", Session: session}); cerr != nil {
		return v, cerr
	}
	return v, nil
}
