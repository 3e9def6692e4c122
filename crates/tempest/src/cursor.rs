//! Bounds-checked little-endian reader over bytes that arrived from
//! outside the process. Every total decoder in the workspace — wire
//! envelopes, control frames, the metrics blob — reads through this one
//! cursor, so "never index past what the peer actually sent" exists once.

/// A read ran past the end of the buffer; carries the offset it started at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated(pub usize);

pub struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    pub fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    /// The next `n` bytes, or [`Truncated`] (a hostile `n` cannot
    /// overflow the offset arithmetic).
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.b.len())
            .ok_or(Truncated(self.pos))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.take(N)?.try_into().expect("take(N) is N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Bytes not yet consumed (a total decoder requires 0 at the end).
    #[inline]
    pub fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_and_stops_at_the_end() {
        let mut c = Cursor::new(&[1, 2, 0, 3, 0, 0, 0, 9]);
        assert_eq!(c.u8(), Ok(1));
        assert_eq!(c.u16(), Ok(2));
        assert_eq!(c.u32(), Ok(3));
        assert_eq!(c.remaining(), 1);
        assert_eq!(c.u64(), Err(Truncated(7)));
        assert_eq!(c.take(usize::MAX), Err(Truncated(7)), "no overflow");
        assert_eq!(c.take(1), Ok(&[9u8][..]));
        assert_eq!(c.remaining(), 0);
    }
}
