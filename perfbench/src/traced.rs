//! Reading the two parties' traces of the traced window: each module's
//! self time, and the client/server overlap split of the conv layers.

use spot_trace::correlate::{merge, PartyTrace};
use spot_trace::{Cat, Event, Phase};
use std::collections::HashMap;

/// Module a span is attributed to, as an index into the metric name
/// lists: bench/serving, session, twoparty, proto, stream, he.
fn module(ev: &Event) -> usize {
    let name = ev.name.as_str();
    if name.contains("relu round") || name.contains("maxpool round") || name.contains("reveal") {
        return 2;
    }
    match ev.cat {
        Cat::App | Cat::Server => 0,
        Cat::Session => 1,
        Cat::Net => 3,
        Cat::Stream | Cat::Client => 4,
        Cat::He => 5,
    }
}

/// Self time (ms) per module of the spans starting in `[from, to)`: a
/// span's duration minus the part its child spans cover.
pub fn self_ms(events: &[Event], from: u64, to: u64) -> [f64; 6] {
    let dur = |e: &Event| match e.phase {
        Phase::Span { dur_ns } => Some(dur_ns),
        _ => None,
    };
    let mut child_ns: HashMap<(u32, u32), u64> = HashMap::new();
    for e in events {
        if let (Some(d), true) = (dur(e), e.parent != 0) {
            *child_ns.entry((e.tid, e.parent)).or_default() += d;
        }
    }
    let mut out = [0.0; 6];
    for e in events {
        let Some(d) = dur(e) else { continue };
        if e.ts_ns < from || e.ts_ns >= to {
            continue;
        }
        let children = child_ns.get(&(e.tid, e.id)).copied().unwrap_or(0);
        out[module(e)] += d.saturating_sub(children) as f64 / 1e6;
    }
    out
}

/// Client/server overlap of the conv layers, ms summed over layers.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Layers measured.
    pub layers: usize,
    /// Both parties busy.
    pub both_busy_ms: f64,
    /// Only the client busy.
    pub client_only_ms: f64,
    /// Only the server busy.
    pub server_only_ms: f64,
    /// Neither busy (wire or scheduling).
    pub both_idle_ms: f64,
    /// Both-busy time over the smaller party's busy time.
    pub efficiency: f64,
    /// Server spans mapped onto the client clock, for [`self_ms`].
    pub server_events: Vec<Event>,
}

/// Merges the traces and sums the overlap split over every layer but
/// the first `skip_layers` (the warm-up's).
pub fn split(client: &PartyTrace, server: &PartyTrace, skip_layers: usize) -> Split {
    let merged = merge(client, server);
    let mut s = Split::default();
    let (mut client_busy, mut server_busy) = (0u64, 0u64);
    for l in merged.report.layers.iter().skip(skip_layers) {
        s.layers += 1;
        s.both_busy_ms += l.both_busy_ns as f64 / 1e6;
        s.client_only_ms += l.client_only_ns as f64 / 1e6;
        s.server_only_ms += l.server_only_ns as f64 / 1e6;
        s.both_idle_ms += l.both_idle_ns as f64 / 1e6;
        client_busy += l.client_busy_ns;
        server_busy += l.server_busy_ns;
    }
    let min_busy = client_busy.min(server_busy);
    s.efficiency = if min_busy > 0 {
        s.both_busy_ms * 1e6 / min_busy as f64
    } else {
        0.0
    };
    let clock = spot_trace::correlate::clock_from_events(&client.events);
    s.server_events = server
        .events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            if let Some(c) = &clock {
                e.ts_ns = c.server_to_client_ns(e.ts_ns);
            }
            e
        })
        .collect();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_trace::Name;

    fn span(id: u32, parent: u32, cat: Cat, name: &'static str, ts: u64, dur: u64) -> Event {
        Event {
            name: Name::Static(name),
            cat,
            ts_ns: ts,
            tid: 1,
            id,
            parent,
            arg: None,
            arg2: None,
            phase: Phase::Span { dur_ns: dur },
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let ms = 1_000_000;
        let events = vec![
            span(1, 0, Cat::App, "bench inference", 0, 10 * ms),
            span(2, 1, Cat::Session, "send_all spot", ms, 6 * ms),
            span(3, 2, Cat::Net, "send", 2 * ms, 2 * ms),
            span(4, 1, Cat::Session, "relu round", 8 * ms, ms),
            // Starts outside the window: ignored.
            span(5, 0, Cat::App, "bench inference", 50 * ms, 3 * ms),
        ];
        let t = self_ms(&events, 0, 20 * ms);
        assert_eq!(t, [3.0, 4.0, 1.0, 2.0, 0.0, 0.0]);
    }
}
