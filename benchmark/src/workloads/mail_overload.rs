//! `mail_overload`: open-arrival mail at four times the base rate, with
//! bounded admission.
//!
//! Chosen for two reasons.  It uses the codec the opposite way from
//! `flood_mesh` — tens of thousands of large, many-element briefcases (a
//! heavy-tailed body split into 64-byte lines) instead of a million tiny
//! ones — and it is the only workload on the admission, janitor and shed
//! path.  Arrivals are open in *simulated* time only: in host time this is a
//! batch of fixed work like the others.
//!
//! Each arrival is scheduled at the sender (`schedule_meet`), where a
//! benchmark-owned `postbox` agent forwards it with `remote_meet` to the
//! `mailroom` at the recipient's home.  Arrivals are fed in 100 ms simulated
//! windows, each mail is built just before it is handed over, and only the
//! calls into the program are timed: the bodies are never all resident, so
//! peak memory is what the program retains.
//!
//! The seed is the arrival generator's seed: it decides when mail arrives,
//! where, how large it is, and for whom.

use super::{thin, Capture, Harness, Outcome, Size, Workload};
use crate::spans::{boxed, AgentClock};
use std::cell::RefCell;
use std::rc::Rc;
use tacoma_core::prelude::*;
use tacoma_core::{Folder, TacomaSystem};
use tacoma_net::{Arrival, LinkSpec, OpenWorkload, RateCurve, SimTime, SizeDist, Topology};

const SITES: u32 = 16;
const USERS: u64 = 2_000_000;
const LINE_BYTES: usize = 64;
/// Arrivals per site per simulated second at the diurnal mean: four times
/// the 100/s base rate the admission service times are sized for.
const RATE_HZ: f64 = 4.0 * 100.0;
const WINDOW: Duration = Duration(100_000);
/// Simulated time per `run.chunk`: about a thousand events.
const SLICE: Duration = Duration(25_000);

const POSTBOX: &str = "postbox";
const MAILROOM: &str = "mailroom";
const HOME: &str = "HOME";
const ID: &str = "ID";
const BODY: &str = "BODY";

fn arrivals_spec(seed: u64, size: Size) -> OpenWorkload {
    OpenWorkload {
        sites: SITES,
        horizon: Duration::from_millis(size.pick(18_000, 600)),
        curve: RateCurve::diurnal(RATE_HZ, vec![0.6, 1.0, 1.4, 1.0], Duration::from_secs(2)),
        crowds: Vec::new(),
        sizes: SizeDist {
            alpha: 1.3,
            min_bytes: 1024,
            max_bytes: 256 * 1024,
        },
        users: USERS,
        seed,
    }
}

/// Service times sized so that at four times the base rate the bounded
/// queues shed between a sixth and a third of the requested meets.
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        capacity: 32,
        service_floor: Duration::from_micros(400),
        service_per_kib: Duration::from_micros(300),
        service_per_kilostep: Duration::from_micros(0),
        deadline: Some(Duration::from_millis(400)),
        janitor_period: Duration::from_millis(50),
    }
}

/// The byte every line of mail `id` is filled with.
fn fill(id: usize) -> u8 {
    (id % 251) as u8
}

fn home(user: u64) -> SiteId {
    SiteId((user % u64::from(SITES)) as u32)
}

/// The mail for arrival `id`: addressing folders and a body of 64-byte lines.
fn mail(id: usize, arrival: &Arrival) -> Briefcase {
    let mut bc = Briefcase::new();
    bc.put_string("TO", format!("u{}", arrival.user));
    bc.put_string(HOME, home(arrival.user).0.to_string());
    bc.put_string(ID, id.to_string());
    let bytes = arrival.bytes as usize;
    let mut body = Folder::new();
    for _ in 0..bytes / LINE_BYTES {
        body.push(vec![fill(id); LINE_BYTES]);
    }
    if !bytes.is_multiple_of(LINE_BYTES) {
        body.push(vec![fill(id); bytes % LINE_BYTES]);
    }
    bc.put(BODY, body);
    bc
}

/// Forwards each mail to the mailroom at the recipient's home site.
struct Postbox;

impl Agent for Postbox {
    fn name(&self) -> AgentName {
        AgentName::new(POSTBOX)
    }

    fn meet(&mut self, ctx: &mut MeetCtx<'_>, mut bc: Briefcase) -> MeetOutcome {
        let home = bc
            .take_string(HOME)
            .and_then(|h| h.parse().ok())
            .ok_or_else(|| TacomaError::missing(HOME))?;
        bc.take(wellknown::TIMER);
        ctx.remote_meet(
            SiteId(home),
            AgentName::new(MAILROOM),
            bc,
            TransportKind::Tcp,
        );
        Ok(Briefcase::new())
    }
}

/// What the mailrooms received: `(mail id, body bytes)` per delivery, and
/// the number of body lines that did not carry their mail's fill byte.
#[derive(Default)]
struct Ledger {
    delivered: Vec<(usize, u64)>,
    corrupt_lines: u64,
}

/// Terminal contact: accepts the mail and enters it in the shared ledger.
struct Mailroom {
    ledger: Rc<RefCell<Ledger>>,
}

impl Agent for Mailroom {
    fn name(&self) -> AgentName {
        AgentName::new(MAILROOM)
    }

    fn meet(&mut self, _ctx: &mut MeetCtx<'_>, bc: Briefcase) -> MeetOutcome {
        let id: usize = bc
            .peek_string(ID)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| TacomaError::missing(ID))?;
        let body = bc.folder(BODY).ok_or_else(|| TacomaError::missing(BODY))?;
        let mut ledger = self.ledger.borrow_mut();
        let mut bytes = 0;
        for line in body {
            bytes += line.len() as u64;
            ledger.corrupt_lines += u64::from(line.first() != Some(&fill(id)));
        }
        ledger.delivered.push((id, bytes));
        Ok(Briefcase::new())
    }
}

pub struct MailOverload;

pub struct World {
    sys: TacomaSystem,
    spec: OpenWorkload,
    arrivals: Vec<Arrival>,
    ledger: Rc<RefCell<Ledger>>,
}

impl Workload for MailOverload {
    type World = World;

    fn build(seed: u64, size: Size, clock: Option<&Rc<AgentClock>>) -> World {
        let spec = arrivals_spec(seed, size);
        let ledger = Rc::new(RefCell::new(Ledger::default()));
        let (clock, factory_ledger) = (clock.cloned(), Rc::clone(&ledger));
        let sys = TacomaSystem::builder()
            .topology(Topology::full_mesh(SITES, LinkSpec::default()))
            .seed(seed)
            .admission(admission())
            .with_agents(move |_| {
                let mailroom = Mailroom {
                    ledger: Rc::clone(&factory_ledger),
                };
                vec![
                    boxed(Postbox, clock.as_ref()),
                    boxed(mailroom, clock.as_ref()),
                ]
            })
            .build();
        World {
            sys,
            arrivals: spec.generate(),
            spec,
            ledger,
        }
    }

    fn drive(world: &mut World, h: &mut Harness<'_>) {
        let World { sys, arrivals, .. } = world;
        let postbox = AgentName::new(POSTBOX);
        let mut next = 0;
        let mut window_end = SimTime::ZERO;
        while next < arrivals.len() {
            window_end += WINDOW;
            while next < arrivals.len() && arrivals[next].at < window_end {
                let arrival = &arrivals[next];
                let briefcase = mail(next, arrival);
                let delay = arrival.at.since(sys.now());
                h.inject(|| sys.schedule_meet(arrival.site, postbox.clone(), briefcase, delay));
                next += 1;
            }
            h.advance(sys, window_end, SLICE);
        }
        h.drain(sys);
    }

    fn verify(world: World, events: u64) -> Outcome {
        let World {
            sys,
            spec,
            arrivals,
            ledger,
        } = world;
        let mut out = Outcome::default();
        out.observe_system(&sys, events);
        let s = out.stats;
        let ledger = ledger.borrow();
        let mut seen = vec![false; arrivals.len()];
        let mut wrong = 0u64;
        for (id, bytes) in &ledger.delivered {
            match seen.get_mut(*id) {
                Some(slot) if !*slot && arrivals[*id].bytes == *bytes => *slot = true,
                _ => wrong += 1,
            }
        }
        out.check(wrong == 0 && ledger.corrupt_lines == 0, || {
            format!(
                "{wrong} deliveries unknown, repeated or of the wrong size; {} corrupt lines",
                ledger.corrupt_lines
            )
        });
        let delivered_bytes: u64 = ledger.delivered.iter().map(|(_, b)| b).sum();
        let kept_bytes: u64 = arrivals
            .iter()
            .zip(&seen)
            .filter(|(_, kept)| **kept)
            .map(|(a, _)| a.bytes)
            .sum();
        out.check(delivered_bytes == kept_bytes, || {
            format!("{delivered_bytes} BODY bytes delivered, {kept_bytes} in the mail not shed")
        });
        // Every arrival is delivered unless one of its two meets was shed.
        let lost = arrivals.len() as u64 - ledger.delivered.len() as u64;
        out.check(lost == s.meets_shed, || {
            format!("{lost} mails lost, {} meets shed", s.meets_shed)
        });
        out.check(
            s.meets_failed == 0 && s.send_failures == 0 && s.meets_expired == 0,
            || {
                format!(
                    "{} failed, {} send failures, {} expired",
                    s.meets_failed, s.send_failures, s.meets_expired
                )
            },
        );
        let in_flight = out.sim.in_flight();
        out.check(in_flight == 0, || {
            format!("{in_flight} messages still in flight")
        });
        out.attempted = s.meets_requested;
        out.off_nominal = out.terminal_meets() - s.meets_completed;
        out.unplanned = out.off_nominal - s.meets_shed;
        out.payload_bytes = Some(delivered_bytes);
        out.wait_p99_ms = Some(sys.net_metrics().admission_waits().percentile(99.0));
        out.capture = Capture {
            topology: Some(Topology::full_mesh(SITES, LinkSpec::default())),
            pairs: thin(arrivals.iter().map(|a| (a.site, home(a.user))).collect()),
            arrivals: Some(spec),
            ..Capture::default()
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mail_body_is_the_arrival_size_in_64_byte_lines() {
        let arrival = Arrival {
            at: SimTime::ZERO,
            site: SiteId(3),
            bytes: 64 * 5 + 7,
            user: 35,
        };
        let bc = mail(9, &arrival);
        let body = bc.folder(BODY).unwrap();
        assert_eq!(body.len(), 6);
        assert_eq!(body.payload_bytes(), 64 * 5 + 7);
        assert!(body.iter().all(|l| l[0] == fill(9)));
        assert_eq!(bc.peek_string(HOME).as_deref(), Some("3"));
        assert_eq!(bc.peek_string(ID).as_deref(), Some("9"));
    }
}
