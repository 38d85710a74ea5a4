//! The binary wire codec behind the run cache: a canonical byte encoder,
//! a checked decoder, and the [`Wire`] trait each cached type implements
//! once.
//!
//! All multi-byte integers are little-endian (`usize` travels as `u64`);
//! floats are encoded as their `to_bits` pattern, so the encoding is total
//! (infinities and NaNs included) and bit-exact. Every decode error is a
//! string: outside bytes only ever degrade a cache hit to a miss.

/// Append-only canonical byte encoder. Values go in through
/// [`Wire::put`]; the encoder itself writes only tag bytes and strings.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Append bytes an encoder already wrote, verbatim: splices a cached
    /// encoding into a larger one.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, borrowed: an encoder kept as a scratch
    /// buffer hands out each encoding without giving up its allocation.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the bytes written, keeping the buffer for the next encoding.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append one byte: a tag.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a string: a `u32` byte length, then its UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        (s.len() as u32).put(self);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a sequence as a `Vec<T>` writes it: a `u64` element count,
    /// then the elements.
    pub fn seq<T: Wire>(&mut self, s: &[T]) {
        s.len().put(self);
        for v in s {
            v.put(self);
        }
    }

    /// Append an optional value: tag 0, or tag 1 and the value.
    pub fn opt<T: Wire>(&mut self, v: Option<&T>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                v.put(self);
            }
        }
    }
}

/// Cursor-based decoder matching [`Enc`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a length prefix for a sequence whose elements occupy at least
    /// `min_elem_bytes` each, rejecting counts that cannot possibly fit in
    /// the remaining buffer. The check runs **before** any allocation, so
    /// an adversarial or bit-flipped prefix can neither reserve huge
    /// buffers nor spin a long decode loop — it fails immediately.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = usize::get(self)?;
        let fits = n
            .checked_mul(min_elem_bytes.max(1))
            .is_some_and(|total| total <= self.remaining());
        if !fits {
            return Err(format!(
                "sequence length {n} cannot fit in {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// Read one byte: a tag.
    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Fail unless every byte was consumed.
    pub fn done(&self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after payload")),
        }
    }
}

/// A type with one canonical byte layout, written by [`Wire::put`] and
/// read back by [`Wire::get`].
pub trait Wire: Sized {
    /// The fewest bytes one value occupies: a `Vec<Self>`'s length prefix
    /// is checked against it before anything is allocated.
    const MIN_BYTES: usize;

    /// Append this value's encoding.
    fn put(&self, e: &mut Enc);

    /// Read a value written by [`Wire::put`].
    fn get(d: &mut Dec<'_>) -> Result<Self, String>;
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = size_of::<$t>();

            #[inline]
            fn put(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(d: &mut Dec<'_>) -> Result<Self, String> {
                let bytes = d.take(size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("took the type's size")))
            }
        }
    )*};
}

int_wire!(u32, u64);

/// As a `u64`.
impl Wire for usize {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, e: &mut Enc) {
        (*self as u64).put(e);
    }

    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        usize::try_from(u64::get(d)?).map_err(|_| "usize overflow".to_string())
    }
}

/// As its `to_bits` pattern.
impl Wire for f64 {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, e: &mut Enc) {
        self.to_bits().put(e);
    }

    #[inline]
    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        u64::get(d).map(f64::from_bits)
    }
}

/// One byte; any nonzero byte reads as `true`.
impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        Ok(d.u8()? != 0)
    }
}

/// As written by [`Enc::str`].
impl Wire for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, e: &mut Enc) {
        e.str(self);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        let n = u32::get(d)? as usize;
        String::from_utf8(d.take(n)?.to_vec()).map_err(|e| e.to_string())
    }
}

/// As written by [`Enc::seq`].
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, e: &mut Enc) {
        e.seq(self);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        let n = d.seq_len(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Ok(v)
    }
}

/// A tag byte (0 = `None`, 1 = `Some`), then the value if any.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, e: &mut Enc) {
        e.opt(self.as_ref());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        match d.u8()? {
            0 => Ok(None),
            1 => T::get(d).map(Some),
            t => Err(format!("unknown option tag {t}")),
        }
    }
}

/// The elements in order, with no length prefix.
impl<T: Wire + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn put(&self, e: &mut Enc) {
        for v in self {
            v.put(e);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, String> {
        let mut a: [T; N] = std::array::from_fn(|_| T::default());
        for v in &mut a {
            *v = T::get(d)?;
        }
        Ok(a)
    }
}

/// Declare a struct and derive its [`Wire`] layout from the declaration:
/// the fields in declaration order, each in its own layout. Reordering
/// or retyping a field changes the layout, so it bumps the schema version
/// of whatever stores it.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::wire::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::wire::Wire>::MIN_BYTES)*;

            #[inline]
            fn put(&self, e: &mut $crate::wire::Enc) {
                $($crate::wire::Wire::put(&self.$field, e);)*
            }

            #[inline]
            fn get(d: &mut $crate::wire::Dec<'_>) -> Result<Self, String> {
                Ok(Self {
                    $($field: $crate::wire::Wire::get(d)?,)*
                })
            }
        }
    };
}
