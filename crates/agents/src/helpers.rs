//! Conventions and helpers shared by the system agents.

use crate::{AgTacAgent, CourierAgent, DiffusionAgent, RexecAgent};
use tacoma_core::prelude::*;
use tacoma_core::Folder;

/// Parses a site id out of a folder element that may be a little-endian `u64`
/// or a decimal string (optionally of the form `siteN`).
pub fn parse_site(folder: &Folder) -> Option<SiteId> {
    let elem = folder.peek_back()?;
    // Prefer the textual forms ("12", "site12"); fall back to a little-endian
    // u64 only for 8-byte elements that are not readable text.
    if let Ok(s) = std::str::from_utf8(elem) {
        let s = s.trim();
        let digits = s.strip_prefix("site").unwrap_or(s);
        if let Ok(n) = digits.parse::<u32>() {
            return Some(SiteId(n));
        }
    }
    if let Ok(arr) = <[u8; 8]>::try_from(elem) {
        let v = u64::from_le_bytes(arr);
        if v <= u32::MAX as u64 {
            return Some(SiteId(v as u32));
        }
    }
    None
}

/// Builds a folder holding a site id as a decimal string (the conventional
/// on-the-wire representation, readable from TacoScript).
pub fn site_folder_value(site: SiteId) -> Folder {
    Folder::of_str(site.0.to_string())
}

/// Builds the briefcase of a script agent: `CODE` holds the TacoScript text
/// and any extra `(folder, value)` string pairs are added alongside.
pub fn script_briefcase(code: &str, extra: &[(&str, &str)]) -> Briefcase {
    let mut bc = Briefcase::new();
    bc.put(wellknown::CODE, Folder::of_str(code));
    for (name, value) in extra {
        bc.folder_mut(name).push_str(value);
    }
    bc
}

/// The default system-agent set installed at every site, mirroring §6's
/// "collection of system agents".
pub fn standard_agents(_site: SiteId) -> Vec<Box<dyn Agent>> {
    vec![
        Box::new(AgTacAgent::new()),
        Box::new(RexecAgent::new()),
        Box::new(CourierAgent::new()),
        Box::new(DiffusionAgent::new()),
    ]
}

/// Reads the transport named in the `TRANSPORT` folder, defaulting to TCP.
pub fn transport_from(bc: &Briefcase) -> TransportKind {
    match bc.peek_string(wellknown::TRANSPORT).as_deref() {
        Some("rsh") => TransportKind::Rsh,
        Some("horus") => TransportKind::Horus,
        _ => TransportKind::Tcp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_site_accepts_multiple_encodings() {
        let mut f = Folder::new();
        f.push_u64(7);
        assert_eq!(parse_site(&f), Some(SiteId(7)));
        assert_eq!(parse_site(&Folder::of_str("12")), Some(SiteId(12)));
        assert_eq!(parse_site(&Folder::of_str("site3")), Some(SiteId(3)));
        assert_eq!(parse_site(&Folder::of_str(" 4 ")), Some(SiteId(4)));
        assert_eq!(parse_site(&Folder::of_str("nonsense")), None);
        assert_eq!(parse_site(&Folder::new()), None);
        assert_eq!(parse_site(&site_folder_value(SiteId(9))), Some(SiteId(9)));
    }

    #[test]
    fn script_briefcase_holds_code_and_extras() {
        let bc = script_briefcase("return 1", &[("HOST", "2"), ("NOTE", "x")]);
        assert_eq!(bc.peek_string(wellknown::CODE).as_deref(), Some("return 1"));
        assert_eq!(bc.peek_string("HOST").as_deref(), Some("2"));
        assert_eq!(bc.len(), 3);
    }

    #[test]
    fn standard_agents_cover_the_wellknown_names() {
        let agents = standard_agents(SiteId(0));
        let names: Vec<String> = agents.iter().map(|a| a.name().to_string()).collect();
        assert!(names.contains(&wellknown::AG_TAC.to_string()));
        assert!(names.contains(&wellknown::REXEC.to_string()));
        assert!(names.contains(&wellknown::COURIER.to_string()));
        assert!(names.contains(&wellknown::DIFFUSION.to_string()));
    }

    #[test]
    fn transport_parsing() {
        let mut bc = Briefcase::new();
        assert_eq!(transport_from(&bc), TransportKind::Tcp);
        bc.put_string(wellknown::TRANSPORT, "rsh");
        assert_eq!(transport_from(&bc), TransportKind::Rsh);
        bc.put_string(wellknown::TRANSPORT, "horus");
        assert_eq!(transport_from(&bc), TransportKind::Horus);
        bc.put_string(wellknown::TRANSPORT, "anything-else");
        assert_eq!(transport_from(&bc), TransportKind::Tcp);
    }
}
