//! Arbitrary-width bit-vector values.
//!
//! [`BitVecValue`] is the concrete value domain of the IR interpreter. Widths
//! are fixed per value (like hardware wires); all arithmetic wraps modulo
//! `2^width`, matching the semantics of the corresponding [`crate::OpKind`]s.

use std::fmt;

/// Number of bits per storage limb.
const LIMB_BITS: u32 = 64;

/// A fixed-width bit vector of up to [`BitVecValue::MAX_WIDTH`] bits.
///
/// Bit 0 is the least significant bit. Unused high bits of the last limb are
/// always kept zero (a structural invariant re-established after every
/// mutation).
///
/// # Examples
///
/// ```
/// use isdc_ir::BitVecValue;
///
/// let a = BitVecValue::from_u64(0b1010, 4);
/// let b = BitVecValue::from_u64(0b0110, 4);
/// assert_eq!(a.xor(&b).to_u64(), 0b1100);
/// assert_eq!(a.add(&b).to_u64(), 0b0000); // wraps modulo 2^4
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVecValue {
    width: u32,
    limbs: Vec<u64>,
}

impl BitVecValue {
    /// Maximum supported width in bits.
    pub const MAX_WIDTH: u32 = 4096;

    /// Creates an all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`Self::MAX_WIDTH`].
    pub fn zero(width: u32) -> Self {
        assert!(
            width > 0 && width <= Self::MAX_WIDTH,
            "bit-vector width {width} out of range 1..={}",
            Self::MAX_WIDTH
        );
        let n = width.div_ceil(LIMB_BITS) as usize;
        Self { width, limbs: vec![0; n] }
    }

    /// Creates an all-ones value of the given width.
    pub fn all_ones(width: u32) -> Self {
        let mut v = Self::zero(width);
        for limb in &mut v.limbs {
            *limb = u64::MAX;
        }
        v.mask();
        v
    }

    /// Creates a value from the low `width` bits of `x`.
    pub fn from_u64(x: u64, width: u32) -> Self {
        let mut v = Self::zero(width);
        v.limbs[0] = x;
        v.mask();
        v
    }

    /// Creates a value from explicit bits, least significant first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or longer than [`Self::MAX_WIDTH`].
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = Self::zero(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set_bit(i as u32, true);
            }
        }
        v
    }

    /// The width of this value in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the low 64 bits as a `u64` (truncating wider values).
    pub fn to_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Returns bit `i` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        (self.limbs[(i / LIMB_BITS) as usize] >> (i % LIMB_BITS)) & 1 == 1
    }

    /// Sets bit `i` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set_bit(&mut self, i: u32, value: bool) {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        let limb = &mut self.limbs[(i / LIMB_BITS) as usize];
        let mask = 1u64 << (i % LIMB_BITS);
        if value {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    /// Returns the bits as a vector, least significant first.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.width).map(|i| self.bit(i)).collect()
    }

    /// True if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Clears bits at positions `>= width` in the top limb.
    fn mask(&mut self) {
        let rem = self.width % LIMB_BITS;
        if rem != 0 {
            let last = self.limbs.len() - 1;
            self.limbs[last] &= (1u64 << rem) - 1;
        }
    }

    fn assert_same_width(&self, other: &Self, op: &str) {
        assert_eq!(
            self.width, other.width,
            "{op}: operand widths differ ({} vs {})",
            self.width, other.width
        );
    }

    /// Bitwise AND. Panics if widths differ.
    pub fn and(&self, other: &Self) -> Self {
        self.assert_same_width(other, "and");
        let mut out = self.clone();
        for (a, b) in out.limbs.iter_mut().zip(&other.limbs) {
            *a &= b;
        }
        out
    }

    /// Bitwise OR. Panics if widths differ.
    pub fn or(&self, other: &Self) -> Self {
        self.assert_same_width(other, "or");
        let mut out = self.clone();
        for (a, b) in out.limbs.iter_mut().zip(&other.limbs) {
            *a |= b;
        }
        out
    }

    /// Bitwise XOR. Panics if widths differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.assert_same_width(other, "xor");
        let mut out = self.clone();
        for (a, b) in out.limbs.iter_mut().zip(&other.limbs) {
            *a ^= b;
        }
        out
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for a in &mut out.limbs {
            *a = !*a;
        }
        out.mask();
        out
    }

    /// Wrapping addition modulo `2^width`. Panics if widths differ.
    pub fn add(&self, other: &Self) -> Self {
        self.assert_same_width(other, "add");
        let mut out = Self::zero(self.width);
        let mut carry = 0u64;
        for i in 0..self.limbs.len() {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask();
        out
    }

    /// Wrapping subtraction modulo `2^width`. Panics if widths differ.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Two's-complement negation modulo `2^width`.
    pub fn neg(&self) -> Self {
        let one = Self::from_u64(1, self.width);
        self.not().add(&one)
    }

    /// Wrapping multiplication modulo `2^width`. Panics if widths differ.
    pub fn mul(&self, other: &Self) -> Self {
        self.assert_same_width(other, "mul");
        let n = self.limbs.len();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            let mut carry: u128 = 0;
            if self.limbs[i] == 0 {
                continue;
            }
            for j in 0..n - i {
                let cur =
                    acc[i + j] as u128 + (self.limbs[i] as u128) * (other.limbs[j] as u128) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        let mut out = Self { width: self.width, limbs: acc };
        out.mask();
        out
    }

    /// Logical left shift by a dynamic amount. Shifts of `>= width` yield zero.
    pub fn shl(&self, amount: u64) -> Self {
        if amount >= self.width as u64 {
            return Self::zero(self.width);
        }
        let mut out = Self::zero(self.width);
        for i in 0..self.width {
            let src = i as i64 - amount as i64;
            if src >= 0 && self.bit(src as u32) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Logical right shift by a dynamic amount. Shifts of `>= width` yield zero.
    pub fn shr(&self, amount: u64) -> Self {
        if amount >= self.width as u64 {
            return Self::zero(self.width);
        }
        let mut out = Self::zero(self.width);
        for i in 0..self.width {
            let src = i as u64 + amount;
            if src < self.width as u64 && self.bit(src as u32) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Arithmetic right shift by a dynamic amount (sign bit replicated).
    pub fn shra(&self, amount: u64) -> Self {
        let sign = self.bit(self.width - 1);
        let mut out = self.shr(amount);
        if sign {
            let start = (self.width as u64).saturating_sub(amount.min(self.width as u64));
            for i in start..self.width as u64 {
                out.set_bit(i as u32, true);
            }
            if amount >= self.width as u64 {
                return Self::all_ones(self.width);
            }
        }
        out
    }

    /// Unsigned comparison: `self < other`. Panics if widths differ.
    pub fn ult(&self, other: &Self) -> bool {
        self.assert_same_width(other, "ult");
        for i in (0..self.limbs.len()).rev() {
            if self.limbs[i] != other.limbs[i] {
                return self.limbs[i] < other.limbs[i];
            }
        }
        false
    }

    /// Concatenation: `self` occupies the **high** bits, `low` the low bits
    /// (matching hardware `{self, low}` notation).
    pub fn concat(&self, low: &Self) -> Self {
        let width = self.width + low.width;
        assert!(width <= Self::MAX_WIDTH, "concat width {width} exceeds max");
        let mut out = Self::zero(width);
        for i in 0..low.width {
            if low.bit(i) {
                out.set_bit(i, true);
            }
        }
        for i in 0..self.width {
            if self.bit(i) {
                out.set_bit(low.width + i, true);
            }
        }
        out
    }

    /// Extracts `width` bits starting at bit `start` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if the slice extends past the end of the value.
    pub fn slice(&self, start: u32, width: u32) -> Self {
        assert!(
            start + width <= self.width,
            "slice [{start}, {start}+{width}) out of range for width {}",
            self.width
        );
        let mut out = Self::zero(width);
        for i in 0..width {
            if self.bit(start + i) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Zero-extends (or truncates, if narrower) to `new_width`.
    pub fn zero_ext(&self, new_width: u32) -> Self {
        let mut out = Self::zero(new_width);
        for i in 0..self.width.min(new_width) {
            if self.bit(i) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Sign-extends to `new_width` (truncates if narrower).
    pub fn sign_ext(&self, new_width: u32) -> Self {
        let mut out = self.zero_ext(new_width);
        if new_width > self.width && self.bit(self.width - 1) {
            for i in self.width..new_width {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// XOR of all bits (1-bit result).
    pub fn reduce_xor(&self) -> Self {
        let parity = self.limbs.iter().fold(0u32, |p, l| p ^ l.count_ones()) & 1;
        Self::from_u64(parity as u64, 1)
    }

    /// OR of all bits (1-bit result).
    pub fn reduce_or(&self) -> Self {
        Self::from_u64(u64::from(!self.is_zero()), 1)
    }

    /// AND of all bits (1-bit result).
    pub fn reduce_and(&self) -> Self {
        Self::from_u64(u64::from(*self == Self::all_ones(self.width)), 1)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }
}

impl fmt::Debug for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bits[{}]:0x", self.width)?;
        let nibbles = self.width.div_ceil(4);
        for i in (0..nibbles).rev() {
            let mut nib = 0u8;
            for b in 0..4 {
                let pos = i * 4 + b;
                if pos < self.width && self.bit(pos) {
                    nib |= 1 << b;
                }
            }
            write!(f, "{nib:x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_ones() {
        let z = BitVecValue::zero(67);
        assert!(z.is_zero());
        assert_eq!(z.width(), 67);
        let o = BitVecValue::all_ones(67);
        assert_eq!(o.count_ones(), 67);
        assert!(o.bit(66));
    }

    #[test]
    #[should_panic(expected = "width 0 out of range")]
    fn zero_width_rejected() {
        let _ = BitVecValue::zero(0);
    }

    #[test]
    fn from_u64_masks() {
        let v = BitVecValue::from_u64(0xff, 4);
        assert_eq!(v.to_u64(), 0xf);
    }

    #[test]
    fn add_wraps() {
        let a = BitVecValue::from_u64(0xffff_ffff_ffff_ffff, 64);
        let b = BitVecValue::from_u64(1, 64);
        assert_eq!(a.add(&b).to_u64(), 0);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BitVecValue::from_u64(u64::MAX, 128);
        let b = BitVecValue::from_u64(1, 128);
        let s = a.add(&b);
        assert!(!s.bit(63));
        assert!(s.bit(64));
    }

    #[test]
    fn sub_and_neg() {
        let a = BitVecValue::from_u64(5, 8);
        let b = BitVecValue::from_u64(7, 8);
        assert_eq!(a.sub(&b).to_u64(), 254); // 5 - 7 mod 256
        assert_eq!(b.sub(&a).to_u64(), 2);
        assert_eq!(a.neg().to_u64(), 251);
    }

    #[test]
    fn mul_matches_native() {
        for (x, y) in [(3u64, 7u64), (255, 255), (0, 123), (1 << 20, 1 << 20)] {
            let a = BitVecValue::from_u64(x, 32);
            let b = BitVecValue::from_u64(y, 32);
            assert_eq!(a.mul(&b).to_u64(), (x.wrapping_mul(y)) & 0xffff_ffff);
        }
    }

    #[test]
    fn mul_wide_cross_limb() {
        let a = BitVecValue::from_u64(u64::MAX, 128);
        let s = a.mul(&a);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1; within 128 bits.
        assert_eq!(s.limbs[0], 1);
        assert_eq!(s.limbs[1], u64::MAX - 1);
    }

    #[test]
    fn shifts() {
        let v = BitVecValue::from_u64(0b1001, 8);
        assert_eq!(v.shl(2).to_u64(), 0b100100);
        assert_eq!(v.shr(1).to_u64(), 0b100);
        assert_eq!(v.shl(8).to_u64(), 0);
        assert_eq!(v.shr(100).to_u64(), 0);
    }

    #[test]
    fn arithmetic_shift_replicates_sign() {
        let v = BitVecValue::from_u64(0b1000_0000, 8);
        assert_eq!(v.shra(3).to_u64(), 0b1111_0000);
        assert_eq!(v.shra(100).to_u64(), 0xff);
        let p = BitVecValue::from_u64(0b0100_0000, 8);
        assert_eq!(p.shra(3).to_u64(), 0b0000_1000);
    }

    #[test]
    fn comparisons() {
        let a = BitVecValue::from_u64(3, 70);
        let mut b = BitVecValue::from_u64(3, 70);
        assert!(!a.ult(&b));
        b.set_bit(69, true);
        assert!(a.ult(&b));
        assert!(!b.ult(&a));
    }

    #[test]
    fn concat_order() {
        let hi = BitVecValue::from_u64(0b10, 2);
        let lo = BitVecValue::from_u64(0b011, 3);
        let c = hi.concat(&lo);
        assert_eq!(c.width(), 5);
        assert_eq!(c.to_u64(), 0b10_011);
    }

    #[test]
    fn slice_and_ext() {
        let v = BitVecValue::from_u64(0b1101_0110, 8);
        assert_eq!(v.slice(1, 4).to_u64(), 0b1011);
        assert_eq!(v.zero_ext(16).to_u64(), 0b1101_0110);
        assert_eq!(v.sign_ext(16).to_u64(), 0xffd6);
        assert_eq!(v.zero_ext(4).to_u64(), 0b0110); // truncation
    }

    #[test]
    fn reductions() {
        let v = BitVecValue::from_u64(0b101, 3);
        assert_eq!(v.reduce_xor().to_u64(), 0);
        assert_eq!(v.reduce_or().to_u64(), 1);
        assert_eq!(v.reduce_and().to_u64(), 0);
        let o = BitVecValue::all_ones(3);
        assert_eq!(o.reduce_and().to_u64(), 1);
        assert_eq!(o.reduce_xor().to_u64(), 1);
    }

    #[test]
    fn bit_roundtrip() {
        let bits = [true, false, true, true, false];
        let v = BitVecValue::from_bits(&bits);
        assert_eq!(v.to_bits(), bits);
    }

    #[test]
    fn debug_format_hex() {
        let v = BitVecValue::from_u64(0xab, 8);
        assert_eq!(format!("{v:?}"), "bits[8]:0xab");
    }
}
