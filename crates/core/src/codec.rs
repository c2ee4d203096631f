//! The TACOMA wire codec: a small length-prefixed binary encoding for folders,
//! briefcases and meet requests.
//!
//! The simulator charges links by the number of bytes that cross them, so the
//! encoding of a migrating briefcase must be concrete.  The format is
//! deliberately simple (the paper stresses folders carry no elaborate index
//! structures):
//!
//! ```text
//! folder    := u32 elem_count { u32 len, bytes }*
//! briefcase := u32 folder_count { u32 name_len, name, folder }*
//! meet_req  := u8 version, u32 contact_len, contact, u64 sender_id,
//!              u32 origin_site, briefcase
//! ```
//!
//! All integers are little-endian.  Decoding is strict: trailing bytes,
//! truncated input, or folder names that are not in strictly ascending order
//! (the only order the encoder emits) produce an error rather than a partial
//! value, so `encode(decode(bytes)) == bytes` whenever `decode` succeeds.
//!
//! The `*_encoded_len` functions are the one source of wire sizes: they fold
//! over the framing without building the bytes, the encoders allocate exactly
//! that much, and anything that only needs a size (admission service time,
//! [`Briefcase::wire_size`]) asks them instead of encoding.

use crate::briefcase::Briefcase;
use crate::error::TacomaError;
use crate::folder::Folder;
use tacoma_util::{AgentId, AgentName, SiteId};

/// Protocol version byte for meet requests.
const MEET_VERSION: u8 = 1;

/// A remote meet request as it travels between sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeetRequest {
    /// The agent to meet at the destination site.
    pub contact: AgentName,
    /// The agent instance that issued the request (for tracing/rear guards).
    pub sender: AgentId,
    /// The site the request originated from.
    pub origin: SiteId,
    /// The briefcase handed to the contact agent.
    pub briefcase: Briefcase,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// A cursor over an input buffer with strict bounds checking.
#[derive(Clone, Copy)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TacomaError> {
        if n > self.remaining() {
            return Err(TacomaError::Codec(format!(
                "truncated input: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TacomaError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TacomaError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, TacomaError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> Result<&'a [u8], TacomaError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn str(&mut self, what: &str) -> Result<&'a str, TacomaError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| TacomaError::Codec(format!("{what} name is not UTF-8")))
    }

    fn finish(&self) -> Result<(), TacomaError> {
        if self.remaining() != 0 {
            Err(TacomaError::Codec(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        } else {
            Ok(())
        }
    }
}

/// Exact length of [`encode_folder`]'s output.
pub fn folder_encoded_len(folder: &Folder) -> usize {
    4 + 4 * folder.len() + folder.payload_bytes()
}

/// Exact length of [`encode_briefcase`]'s output.
pub fn briefcase_encoded_len(bc: &Briefcase) -> usize {
    4 + bc
        .iter()
        .map(|(name, folder)| 4 + name.len() + folder_encoded_len(folder))
        .sum::<usize>()
}

/// Exact length of [`encode_meet_request`]'s output.
pub fn meet_request_encoded_len(req: &MeetRequest) -> usize {
    1 + 4 + req.contact.as_str().len() + 8 + 4 + briefcase_encoded_len(&req.briefcase)
}

/// Encodes a folder.
pub fn encode_folder(folder: &Folder) -> Vec<u8> {
    let mut out = Vec::with_capacity(folder_encoded_len(folder));
    encode_folder_into(folder, &mut out);
    out
}

fn encode_folder_into(folder: &Folder, out: &mut Vec<u8>) {
    put_u32(out, folder.len() as u32);
    for elem in folder.iter() {
        put_bytes(out, elem);
    }
}

fn decode_folder_from(r: &mut Reader<'_>) -> Result<Folder, TacomaError> {
    let count = r.u32()? as usize;
    // Every element costs at least its length prefix, so a count the input
    // cannot hold is refused before anything is reserved for it.
    if count > r.remaining() / 4 {
        return Err(TacomaError::Codec(format!(
            "truncated input: {count} elements claimed at offset {}, have {} bytes",
            r.pos,
            r.remaining()
        )));
    }
    // First pass: check the framing and size the arena exactly.
    let mut scan = *r;
    let mut payload = 0usize;
    for _ in 0..count {
        payload += scan.bytes()?.len();
    }
    if u32::try_from(payload).is_err() {
        return Err(TacomaError::Codec(format!(
            "folder of {payload} bytes exceeds the u32 limit"
        )));
    }
    let mut folder = Folder::with_capacity(count, payload);
    for _ in 0..count {
        folder.push_bytes(r.bytes()?);
    }
    Ok(folder)
}

/// Decodes a folder, rejecting trailing bytes.
pub fn decode_folder(buf: &[u8]) -> Result<Folder, TacomaError> {
    let mut r = Reader::new(buf);
    let f = decode_folder_from(&mut r)?;
    r.finish()?;
    Ok(f)
}

/// Encodes a briefcase.
pub fn encode_briefcase(bc: &Briefcase) -> Vec<u8> {
    let mut out = Vec::with_capacity(briefcase_encoded_len(bc));
    encode_briefcase_into(bc, &mut out);
    out
}

fn encode_briefcase_into(bc: &Briefcase, out: &mut Vec<u8>) {
    put_u32(out, bc.len() as u32);
    for (name, folder) in bc.iter() {
        put_bytes(out, name.as_bytes());
        encode_folder_into(folder, out);
    }
}

fn decode_briefcase_from(r: &mut Reader<'_>) -> Result<Briefcase, TacomaError> {
    let count = r.u32()? as usize;
    let mut bc = Briefcase::new();
    let mut prev: Option<&str> = None;
    for _ in 0..count {
        let name = r.str("folder")?;
        // The encoder walks a `BTreeMap`, so names arrive strictly ascending;
        // anything else (a repeat would silently replace the earlier folder)
        // is not something `encode_briefcase` can have produced.
        if prev.is_some_and(|p| p >= name) {
            return Err(TacomaError::Codec(format!(
                "folder name {name:?} repeats or is out of order"
            )));
        }
        prev = Some(name);
        bc.put(name, decode_folder_from(r)?);
    }
    Ok(bc)
}

/// Decodes a briefcase, rejecting trailing bytes.
pub fn decode_briefcase(buf: &[u8]) -> Result<Briefcase, TacomaError> {
    let mut r = Reader::new(buf);
    let bc = decode_briefcase_from(&mut r)?;
    r.finish()?;
    Ok(bc)
}

/// Encodes a remote meet request.
pub fn encode_meet_request(req: &MeetRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(meet_request_encoded_len(req));
    out.push(MEET_VERSION);
    put_bytes(&mut out, req.contact.as_str().as_bytes());
    put_u64(&mut out, req.sender.0);
    put_u32(&mut out, req.origin.0);
    encode_briefcase_into(&req.briefcase, &mut out);
    out
}

/// Decodes a remote meet request.
pub fn decode_meet_request(buf: &[u8]) -> Result<MeetRequest, TacomaError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != MEET_VERSION {
        return Err(TacomaError::Codec(format!(
            "unknown meet request version {version}"
        )));
    }
    let contact = r.str("contact")?;
    let sender = AgentId(r.u64()?);
    let origin = SiteId(r.u32()?);
    let briefcase = decode_briefcase_from(&mut r)?;
    r.finish()?;
    Ok(MeetRequest {
        contact: AgentName::new(contact),
        sender,
        origin,
        briefcase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_briefcase() -> Briefcase {
        let mut bc = Briefcase::new();
        bc.put_string("HOST", "site2");
        bc.folder_mut("DATA").push(vec![1, 2, 3, 255]);
        bc.folder_mut("DATA").push(vec![]);
        bc.put_u64("HOPS", 9);
        bc
    }

    #[test]
    fn folder_round_trip() {
        let mut f = Folder::new();
        f.push_str("hello");
        f.push(vec![0, 1, 2]);
        f.push(vec![]);
        let encoded = encode_folder(&f);
        let decoded = decode_folder(&encoded).unwrap();
        assert_eq!(f, decoded);
    }

    #[test]
    fn empty_folder_and_briefcase_round_trip() {
        assert_eq!(
            decode_folder(&encode_folder(&Folder::new())).unwrap(),
            Folder::new()
        );
        assert_eq!(
            decode_briefcase(&encode_briefcase(&Briefcase::new())).unwrap(),
            Briefcase::new()
        );
    }

    #[test]
    fn briefcase_round_trip() {
        let bc = sample_briefcase();
        let decoded = decode_briefcase(&encode_briefcase(&bc)).unwrap();
        assert_eq!(bc, decoded);
    }

    #[test]
    fn meet_request_round_trip() {
        let req = MeetRequest {
            contact: AgentName::new("rexec"),
            sender: AgentId(77),
            origin: SiteId(3),
            briefcase: sample_briefcase(),
        };
        let decoded = decode_meet_request(&encode_meet_request(&req)).unwrap();
        assert_eq!(req, decoded);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bc = sample_briefcase();
        let encoded = encode_briefcase(&bc);
        for cut in [0, 1, encoded.len() / 2, encoded.len() - 1] {
            assert!(
                decode_briefcase(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut encoded = encode_folder(&Folder::of_str("x"));
        encoded.push(0);
        assert!(decode_folder(&encoded).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let req = MeetRequest {
            contact: AgentName::new("a"),
            sender: AgentId(1),
            origin: SiteId(0),
            briefcase: Briefcase::new(),
        };
        let mut encoded = encode_meet_request(&req);
        encoded[0] = 99;
        assert!(decode_meet_request(&encoded).is_err());
    }

    #[test]
    fn non_utf8_name_is_rejected() {
        // Hand-build a briefcase encoding with an invalid UTF-8 name.
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        put_bytes(&mut out, &[0xFF, 0xFE]);
        encode_folder_into(&Folder::new(), &mut out);
        assert!(decode_briefcase(&out).is_err());
    }

    /// Hand-builds a briefcase encoding from `(name, folder)` pairs in the
    /// order given, which the encoder itself would sort.
    fn raw_briefcase(folders: &[(&str, &Folder)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, folders.len() as u32);
        for (name, folder) in folders {
            put_bytes(&mut out, name.as_bytes());
            encode_folder_into(folder, &mut out);
        }
        out
    }

    #[test]
    fn repeated_or_unordered_folder_names_are_rejected() {
        let (x, y) = (Folder::of_str("x"), Folder::of_str("y"));
        let canonical = raw_briefcase(&[("A", &x), ("B", &y)]);
        assert_eq!(
            encode_briefcase(&decode_briefcase(&canonical).unwrap()),
            canonical
        );
        // A repeat used to replace the earlier folder silently, so that
        // re-encoding the decoded value was shorter than the input.
        let repeated = decode_briefcase(&raw_briefcase(&[("A", &x), ("A", &y)]));
        assert!(matches!(repeated, Err(TacomaError::Codec(_))));
        let unordered = decode_briefcase(&raw_briefcase(&[("B", &y), ("A", &x)]));
        assert!(matches!(unordered, Err(TacomaError::Codec(_))));
    }

    #[test]
    fn an_element_count_the_input_cannot_hold_is_rejected() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert!(matches!(decode_folder(&buf), Err(TacomaError::Codec(_))));
        // Same claim one level down, as the only folder of a briefcase.
        let mut bc = Vec::new();
        put_u32(&mut bc, 1);
        put_bytes(&mut bc, b"F");
        bc.extend_from_slice(&buf);
        assert!(decode_briefcase(&bc).is_err());
    }

    #[test]
    fn encoded_len_is_exact() {
        let req = MeetRequest {
            contact: AgentName::new("rexec"),
            sender: AgentId(77),
            origin: SiteId(3),
            briefcase: sample_briefcase(),
        };
        let bytes = encode_meet_request(&req);
        assert_eq!(meet_request_encoded_len(&req), bytes.len());
        assert_eq!(bytes.capacity(), bytes.len(), "allocated once, exactly");
        let bc = &req.briefcase;
        assert_eq!(briefcase_encoded_len(bc), encode_briefcase(bc).len());
        assert_eq!(bc.wire_size(), briefcase_encoded_len(bc));
        for (_, folder) in bc.iter() {
            assert_eq!(folder_encoded_len(folder), encode_folder(folder).len());
        }
        assert_eq!(folder_encoded_len(&Folder::new()), 4);
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let mut bc = Briefcase::new();
        bc.folder_mut("D").push(vec![0u8; 10_000]);
        let size = briefcase_encoded_len(&bc);
        assert!(
            (10_000..10_100).contains(&size),
            "size {size} should be payload plus small framing"
        );
    }
}
