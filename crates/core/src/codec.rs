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
//!
//! The kernel hands a request over by value at both ends of a hop
//! ([`encode_meet_request_owned`], [`decode_meet_request_owned`]), so a
//! folder that is more than half of the buffer, and too large to be held in
//! place, changes owners instead of being copied; the borrowed entry points
//! write and read the same bytes with the same writer and parser.

use crate::briefcase::Briefcase;
use crate::error::TacomaError;
use crate::folder::{Folder, SMALL};
use std::ops::Range;
use tacoma_util::{AgentId, AgentName, Name, SiteId};

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

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// A cursor over an input buffer with strict bounds checking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Runs `decode` over `buf`, all of it: trailing bytes are an error.
    fn whole<T>(
        buf: &'a [u8],
        decode: impl FnOnce(&mut Self) -> Result<T, TacomaError>,
    ) -> Result<T, TacomaError> {
        let mut r = Reader { buf, pos: 0 };
        let value = decode(&mut r)?;
        match r.rest().len() {
            0 => Ok(value),
            n => Err(TacomaError::Codec(format!(
                "{n} trailing bytes after decode"
            ))),
        }
    }

    /// The input not yet consumed.
    fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The error for input that ends before `wanted`.  Every count is held
    /// against the input left before anything is reserved for it.
    fn truncated(&self, wanted: std::fmt::Arguments<'_>) -> TacomaError {
        TacomaError::Codec(format!(
            "truncated input: {wanted} at offset {}, have {} bytes",
            self.pos,
            self.rest().len()
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TacomaError> {
        let slice =
            (self.rest().get(..n)).ok_or_else(|| self.truncated(format_args!("{n} bytes")))?;
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], TacomaError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn u32(&mut self) -> Result<u32, TacomaError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn str(&mut self, what: &str) -> Result<&'a str, TacomaError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| TacomaError::Codec(format!("{what} name is not UTF-8")))
    }
}

/// Exact length of [`encode_folder`]'s output.
pub fn folder_encoded_len(folder: &Folder) -> usize {
    4 + folder.wire_image().len()
}

/// Exact length of [`encode_folders`]' output.
fn folders_encoded_len<'a>(folders: impl Iterator<Item = (&'a [u8], &'a Folder)>) -> usize {
    4 + folders
        .map(|(name, folder)| 4 + name.len() + folder_encoded_len(folder))
        .sum::<usize>()
}

/// Exact length of [`encode_briefcase`]'s output.
pub fn briefcase_encoded_len(bc: &Briefcase) -> usize {
    folders_encoded_len(bc.wire_folders())
}

/// Exact length of [`encode_meet_request`]'s output.
pub fn meet_request_encoded_len(req: &MeetRequest) -> usize {
    1 + 4 + req.contact.0.as_bytes().len() + 8 + 4 + briefcase_encoded_len(&req.briefcase)
}

/// Whether a folder image of `image` bytes keeps a buffer of `buffer` bytes
/// as its arena instead of being copied: only when it is more than half of
/// it, the bound [`Folder`] already keeps between its arena and its live
/// bytes (it reclaims a dequeued prefix at half), and too large to be held
/// in place.  At most one folder of a request can be.
fn adopts(image: usize, buffer: usize) -> bool {
    image > SMALL && image > buffer / 2
}

/// Encodes a folder.
pub fn encode_folder(folder: &Folder) -> Vec<u8> {
    let mut out = Vec::with_capacity(folder_encoded_len(folder));
    encode_folder_into(folder, &mut out);
    out
}

/// The count, then the folder's live wire image as it is stored.
fn encode_folder_into(folder: &Folder, out: &mut Vec<u8>) {
    put_u32(out, folder.len() as u32);
    out.extend_from_slice(folder.wire_image());
}

/// A folder off the reader, its count and then its image: the element
/// count and where the image lies in the input.
fn scan_folder(r: &mut Reader<'_>) -> Result<(usize, Range<usize>), TacomaError> {
    let count = r.u32()? as usize;
    let used = Folder::scan(r.rest(), count)
        .ok_or_else(|| r.truncated(format_args!("a folder of {count} elements")))?;
    let image = r.pos..r.pos + used;
    r.pos = image.end;
    Ok((count, image))
}

/// Decodes a folder, rejecting trailing bytes.
pub fn decode_folder(buf: &[u8]) -> Result<Folder, TacomaError> {
    Reader::whole(buf, |r| {
        let (count, image) = scan_folder(r)?;
        Ok(Folder::from_image(&r.buf[image], count))
    })
}

/// Encodes a briefcase.
pub fn encode_briefcase(bc: &Briefcase) -> Vec<u8> {
    encode_folders(bc.wire_folders())
}

/// Encodes `(name, folder)` pairs, given in strictly ascending name order, as
/// a briefcase: what a [`Briefcase`] and a cabinet snapshot both are.
pub(crate) fn encode_folders<'a>(
    folders: impl ExactSizeIterator<Item = (&'a [u8], &'a Folder)> + Clone,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(folders_encoded_len(folders.clone()));
    encode_folders_into(folders, &mut out, None);
    out
}

/// A folder whose image an encoder's output buffer starts with: the folder
/// at `at` in name order, `count` elements in `image` bytes.
#[derive(Clone, Copy)]
struct InPlace {
    at: usize,
    count: usize,
    image: usize,
}

/// The briefcase framing, written behind what `out` holds.  With
/// `in_place`, the briefcase has an empty folder where that one was, and
/// when its turn comes, everything written behind its image so far is
/// rotated in front of it, once.
fn encode_folders_into<'a>(
    folders: impl ExactSizeIterator<Item = (&'a [u8], &'a Folder)>,
    out: &mut Vec<u8>,
    in_place: Option<InPlace>,
) {
    put_u32(out, folders.len() as u32);
    for (k, (name, folder)) in folders.enumerate() {
        put_bytes(out, name);
        match in_place {
            Some(InPlace { at, count, image }) if at == k => {
                put_u32(out, count as u32);
                let framing = out.len() - image;
                out.rotate_right(framing);
            }
            _ => encode_folder_into(folder, out),
        }
    }
}

/// The folder a decoder found to keep its input buffer as the arena: the
/// folder at `at` in name order, its element count, and where its image
/// lies.
struct Kept {
    at: usize,
    count: usize,
    image: Range<usize>,
}

/// The folders of a briefcase off the reader, each name in strictly
/// ascending order.  Each image is copied, except the one that [`adopts`]
/// an input buffer of `buffer` bytes: that folder is left empty, to be
/// given the buffer once the whole input has parsed.
fn decode_briefcase_from(
    r: &mut Reader<'_>,
    buffer: usize,
) -> Result<(Briefcase, Option<Kept>), TacomaError> {
    let count = r.u32()? as usize;
    // Every folder costs at least a name length and an element count.
    if count > r.rest().len() / 8 {
        return Err(r.truncated(format_args!("{count} folders")));
    }
    let mut folders = Vec::with_capacity(count);
    let mut kept = None;
    let mut prev: Option<&str> = None;
    for at in 0..count {
        let name = r.str("folder")?;
        // The encoder emits names strictly ascending; anything else (a
        // repeat would silently replace the earlier folder) is not something
        // `encode_briefcase` can have produced.
        if prev.is_some_and(|p| p >= name) {
            return Err(TacomaError::Codec(format!(
                "folder name {name:?} repeats or is out of order"
            )));
        }
        prev = Some(name);
        let (count, image) = scan_folder(r)?;
        let folder = if adopts(image.len(), buffer) {
            kept = Some(Kept { at, count, image });
            Folder::new()
        } else {
            Folder::from_image(&r.buf[image], count)
        };
        folders.push((Name::copied(name), folder));
    }
    Ok((Briefcase::from_sorted(folders), kept))
}

/// Decodes a briefcase, rejecting trailing bytes.
pub fn decode_briefcase(buf: &[u8]) -> Result<Briefcase, TacomaError> {
    Reader::whole(buf, |r| Ok(decode_briefcase_from(r, usize::MAX)?.0))
}

/// Writes `req` behind what `out` holds (see [`encode_folders_into`]).
fn encode_request_into(req: &MeetRequest, out: &mut Vec<u8>, in_place: Option<InPlace>) {
    out.push(MEET_VERSION);
    put_bytes(out, req.contact.0.as_bytes());
    out.extend_from_slice(&req.sender.0.to_le_bytes());
    put_u32(out, req.origin.0);
    encode_folders_into(req.briefcase.wire_folders(), out, in_place);
}

/// Encodes a remote meet request, leaving it as it was.
pub fn encode_meet_request(req: &MeetRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(meet_request_encoded_len(req));
    encode_request_into(req, &mut out, None);
    out
}

/// Encodes a remote meet request it is handed, bytes for bytes what
/// [`encode_meet_request`] writes.  A folder that is more than half of the
/// request and of its own arena (so that [`decode_meet_request_owned`] lets
/// it keep the buffer) lends its arena: the request is written around its
/// image, reserved once and shifted up once, instead of copying it into a
/// fresh buffer.
pub fn encode_meet_request_owned(mut req: MeetRequest) -> Vec<u8> {
    let len = meet_request_encoded_len(&req);
    let lender = req.briefcase.wire_folders().position(|(_, folder)| {
        let buffer = len.max(folder.arena_capacity());
        adopts(folder.wire_image().len(), buffer)
    });
    let Some(at) = lender else {
        let mut out = Vec::with_capacity(len);
        encode_request_into(&req, &mut out, None);
        return out;
    };
    let folder = std::mem::take(req.briefcase.nth_mut(at));
    let count = folder.len();
    let mut out = folder.into_wire_image();
    let image = out.len();
    out.reserve_exact(len - image);
    encode_request_into(&req, &mut out, Some(InPlace { at, count, image }));
    out
}

/// The one meet request parser: the request, and the folder that adopts an
/// input buffer of `buffer` bytes, if one does (see [`decode_briefcase_from`]).
fn decode_request(buf: &[u8], buffer: usize) -> Result<(MeetRequest, Option<Kept>), TacomaError> {
    Reader::whole(buf, |r| {
        let [version] = r.array()?;
        if version != MEET_VERSION {
            return Err(TacomaError::Codec(format!(
                "unknown meet request version {version}"
            )));
        }
        let contact = AgentName::from(r.str("contact")?);
        let sender = AgentId(u64::from_le_bytes(r.array()?));
        let origin = SiteId(r.u32()?);
        let (briefcase, kept) = decode_briefcase_from(r, buffer)?;
        let req = MeetRequest {
            contact,
            sender,
            origin,
            briefcase,
        };
        Ok((req, kept))
    })
}

/// Decodes a remote meet request, copying what it keeps out of `buf`.
pub fn decode_meet_request(buf: &[u8]) -> Result<MeetRequest, TacomaError> {
    Ok(decode_request(buf, usize::MAX)?.0)
}

/// Decodes a remote meet request it is handed, to what
/// [`decode_meet_request`] returns.  A folder whose image is more than half
/// of `buf`'s capacity, and too large to be held in place, keeps `buf` as
/// its arena: its image is moved down once, and nothing of its size is
/// allocated.
pub fn decode_meet_request_owned(buf: Vec<u8>) -> Result<MeetRequest, TacomaError> {
    let (mut req, kept) = decode_request(&buf, buf.capacity())?;
    if let Some(Kept { at, count, image }) = kept {
        *req.briefcase.nth_mut(at) = Folder::adopt(buf, image, count);
    }
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> MeetRequest {
        let mut bc = Briefcase::new();
        bc.put_string("HOST", "site2");
        bc.folder_mut("DATA").push(vec![1, 2, 3, 255]);
        bc.folder_mut("DATA").push(vec![]);
        bc.put_u64("HOPS", 9);
        MeetRequest {
            contact: AgentName::new("rexec"),
            sender: AgentId(77),
            origin: SiteId(3),
            briefcase: bc,
        }
    }

    #[test]
    fn folders_briefcases_and_requests_round_trip() {
        let mut f = Folder::new();
        f.push_str("hello");
        f.push(vec![0, 1, 2]);
        f.push(vec![]);
        for folder in [f, Folder::new()] {
            assert_eq!(decode_folder(&encode_folder(&folder)).unwrap(), folder);
        }
        let req = sample_request();
        for bc in [req.briefcase.clone(), Briefcase::new()] {
            assert_eq!(decode_briefcase(&encode_briefcase(&bc)).unwrap(), bc);
        }
        assert_eq!(
            decode_meet_request(&encode_meet_request(&req)).unwrap(),
            req
        );
    }

    /// The owned entry points write and read the same bytes as the borrowed
    /// ones, whichever folder (if any) lends or keeps the buffer.
    #[test]
    fn owned_entry_points_match_the_borrowed_ones() {
        let mut big = sample_request();
        big.briefcase.folder_mut("DATA").push(vec![7; 300]);
        let mut last = sample_request();
        last.briefcase.folder_mut("ZZ").push(vec![8; 300]);
        last.briefcase.folder_mut("ZZ").dequeue();
        last.briefcase.folder_mut("ZZ").push(vec![9; 400]);
        for req in [sample_request(), big, last] {
            let bytes = encode_meet_request(&req);
            let owned = encode_meet_request_owned(req.clone());
            assert_eq!(owned, bytes);
            assert_eq!(decode_meet_request_owned(owned).unwrap(), req);
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let encoded = encode_briefcase(&sample_request().briefcase);
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
        let mut encoded = encode_meet_request(&sample_request());
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

    #[test]
    fn repeated_or_unordered_folder_names_are_rejected() {
        // `encode_folders` writes pairs in the order given; a `Briefcase`
        // would sort them.
        let (x, y) = (Folder::of_str("x"), Folder::of_str("y"));
        let raw = |pairs: [(&str, &Folder); 2]| {
            encode_folders(pairs.into_iter().map(|(name, f)| (name.as_bytes(), f)))
        };
        let canonical = raw([("A", &x), ("B", &y)]);
        assert_eq!(
            encode_briefcase(&decode_briefcase(&canonical).unwrap()),
            canonical
        );
        // A repeat used to replace the earlier folder silently, so that
        // re-encoding the decoded value was shorter than the input.
        let repeated = decode_briefcase(&raw([("A", &x), ("A", &y)]));
        assert!(matches!(repeated, Err(TacomaError::Codec(_))));
        let unordered = decode_briefcase(&raw([("B", &y), ("A", &x)]));
        assert!(matches!(unordered, Err(TacomaError::Codec(_))));
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_rejected() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert!(matches!(decode_folder(&buf), Err(TacomaError::Codec(_))));
        // The same bytes claim `u32::MAX` folders.
        assert!(matches!(decode_briefcase(&buf), Err(TacomaError::Codec(_))));
        // The element claim one level down, as the only folder of a briefcase.
        let mut bc = Vec::new();
        put_u32(&mut bc, 1);
        put_bytes(&mut bc, b"F");
        bc.extend_from_slice(&buf);
        assert!(decode_briefcase(&bc).is_err());
    }

    #[test]
    fn encoded_len_is_exact() {
        let req = sample_request();
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
