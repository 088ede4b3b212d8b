//! Simulation time: absolute instants and durations, with the calendar
//! rendering used by the textual recovery-log format.
//!
//! The simulator runs on a virtual clock of whole seconds. [`SimTime`] is an
//! absolute instant measured from the *log epoch* (2006-01-01 00:00:00, a
//! date contemporary with the paper's data collection window);
//! [`SimDuration`] is a span between two instants. Both are newtypes over
//! `u64` seconds so that instants and spans cannot be mixed up
//! (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

use crate::error::ParseLogError;

/// Calendar year of the log epoch used when rendering [`SimTime`].
pub const EPOCH_YEAR: i64 = 2006;

/// Days from 1970-01-01 to the log epoch (2006-01-01), used internally by
/// the civil-date conversion.
const EPOCH_DAYS: i128 = days_from_civil(EPOCH_YEAR, 1, 1);

/// An absolute instant on the simulation clock, in whole seconds since the
/// log epoch (2006-01-01 00:00:00).
///
/// ```
/// use recovery_simlog::SimTime;
///
/// let t = SimTime::from_secs(3 * 3600 + 7 * 60 + 12);
/// assert_eq!(t.to_string(), "2006-01-01 03:07:12");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span between two [`SimTime`] instants, in whole seconds.
///
/// ```
/// use recovery_simlog::SimDuration;
///
/// let d = SimDuration::from_secs(90);
/// assert_eq!(d.as_secs(), 90);
/// assert_eq!((d + SimDuration::from_secs(30)).as_secs(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The log epoch itself: 2006-01-01 00:00:00.
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Seconds elapsed since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; the simulator only ever
    /// measures forward spans.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant ({earlier} > {self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The span from `earlier` to `self`, or `None` if `earlier` is later.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Decomposes this instant into calendar fields
    /// `(year, month, day, hour, minute, second)`.
    pub fn to_calendar(self) -> (i64, u32, u32, u32, u32, u32) {
        let days = (self.0 / 86_400) as i64 + EPOCH_DAYS as i64;
        let rem = self.0 % 86_400;
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (rem / 3600) as u32,
            (rem % 3600 / 60) as u32,
            (rem % 60) as u32,
        )
    }

    /// Builds an instant from calendar fields.
    ///
    /// Returns `None` if the fields do not name a valid date-time at or
    /// after the epoch that fits the `u64` seconds clock.
    pub fn from_calendar(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Option<Self> {
        if !(1..=12).contains(&month)
            || day < 1
            || day > days_in_month(year, month)
            || hour > 23
            || minute > 59
            || second > 59
        {
            return None;
        }
        let days = u64::try_from(days_from_civil(year, month, day) - EPOCH_DAYS).ok()?;
        let clock = u64::from(hour) * 3600 + u64::from(minute) * 60 + u64::from(second);
        days.checked_mul(86_400)?.checked_add(clock).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a span of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Creates a span of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    /// Creates a span of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// This span in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// This span in seconds as a float, convenient for cost arithmetic.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    /// Renders as `YYYY-MM-DD hh:mm:ss`, the timestamp format of the
    /// textual recovery log.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_calendar();
        write!(f, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    /// Renders as a humanized span, e.g. `2d 03:15:09`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.0 / 86_400;
        let rem = self.0 % 86_400;
        let (h, m, s) = (rem / 3600, rem % 3600 / 60, rem % 60);
        if days > 0 {
            write!(f, "{days}d {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

impl FromStr for SimTime {
    type Err = ParseLogError;

    /// Parses the `YYYY-MM-DD hh:mm:ss` rendering of [`SimTime`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseLogError::timestamp(s);
        let (date, clock) = s.split_once(' ').ok_or_else(bad)?;
        let mut dit = date.splitn(3, '-');
        let mut cit = clock.splitn(3, ':');
        let year = dit
            .next()
            .ok_or_else(bad)?
            .parse::<i64>()
            .map_err(|_| bad())?;
        let next_field = |it: &mut dyn Iterator<Item = &str>| -> Result<u32, ParseLogError> {
            it.next().ok_or_else(bad)?.parse::<u32>().map_err(|_| bad())
        };
        let month = next_field(&mut dit)?;
        let day = next_field(&mut dit)?;
        let hour = next_field(&mut cit)?;
        let minute = next_field(&mut cit)?;
        let second = next_field(&mut cit)?;
        SimTime::from_calendar(year, month, day, hour, minute, second).ok_or_else(bad)
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
/// Computed in `i128`, where no `i64` year can overflow it.
const fn days_from_civil(y: i64, m: u32, d: u32) -> i128 {
    let y = y as i128 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i128 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i128 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn days_in_month(year: i64, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) => 29,
        2 => 28,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_renders_as_new_year_2006() {
        assert_eq!(SimTime::EPOCH.to_string(), "2006-01-01 00:00:00");
    }

    #[test]
    fn paper_table1_timestamp_round_trips() {
        // Table 1's first entry occurs at 3:07:12 am.
        let t = SimTime::from_secs(3 * 3600 + 7 * 60 + 12);
        let s = t.to_string();
        assert_eq!(s, "2006-01-01 03:07:12");
        assert_eq!(s.parse::<SimTime>().unwrap(), t);
    }

    #[test]
    fn crosses_month_and_year_boundaries() {
        let jan31 = SimTime::from_calendar(2006, 1, 31, 23, 59, 59).unwrap();
        assert_eq!(
            (jan31 + SimDuration::from_secs(1)).to_string(),
            "2006-02-01 00:00:00"
        );
        let dec31 = SimTime::from_calendar(2006, 12, 31, 23, 59, 59).unwrap();
        assert_eq!(
            (dec31 + SimDuration::from_secs(1)).to_string(),
            "2007-01-01 00:00:00"
        );
    }

    #[test]
    fn handles_leap_year_2008() {
        let t = SimTime::from_calendar(2008, 2, 29, 12, 0, 0).expect("2008 is a leap year");
        assert_eq!(t.to_string(), "2008-02-29 12:00:00");
        assert!(SimTime::from_calendar(2007, 2, 29, 0, 0, 0).is_none());
    }

    #[test]
    fn rejects_invalid_calendar_fields() {
        assert!(SimTime::from_calendar(2006, 0, 1, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 13, 1, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 4, 31, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 1, 1, 24, 0, 0).is_none());
        assert!(SimTime::from_calendar(2006, 1, 1, 0, 60, 0).is_none());
        assert!(
            SimTime::from_calendar(2005, 12, 31, 23, 59, 59).is_none(),
            "before epoch"
        );
    }

    #[test]
    fn rejects_malformed_strings() {
        for s in [
            "",
            "2006-01-01",
            "03:07:12",
            "2006/01/01 03:07:12",
            "2006-01-01 3:7",
        ] {
            assert!(s.parse::<SimTime>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn rejects_out_of_range_fields_without_overflow() {
        for s in [
            "2006-4294967297-01 00:00:00",
            "2006-01-01 4294967296:00:00",
            "2006-01-4294967297 00:00:00",
            "2006-01-01 00:4294967356:00",
            "2006-01-01 00:00:4294967355",
            "2006--1-01 00:00:00",
            "999999999999-01-01 00:00:00",
            "584554051260-01-01 00:00:00",
            "9223372036854775807-12-31 23:59:59",
        ] {
            let err = s.parse::<SimTime>().expect_err(s);
            assert_eq!(
                err.kind(),
                crate::error::ParseLogErrorKind::Timestamp,
                "{s}"
            );
        }
        assert!(SimTime::from_calendar(i64::MIN, 1, 1, 0, 0, 0).is_none());
        assert!(SimTime::from_calendar(i64::MAX, 12, 31, 23, 59, 59).is_none());
    }

    #[test]
    fn accepted_timestamps_round_trip_through_display() {
        let mut accepted = vec![SimTime::EPOCH, SimTime::from_secs(u64::MAX)];
        let mut x = 0x2007_D50A_u64;
        for _ in 0..2_000 {
            // SplitMix64 steps: instants spread over the whole u64 clock.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            accepted.push(SimTime::from_secs(z ^ (z >> 31)));
        }
        for t in accepted {
            let rendered = t.to_string();
            assert_eq!(rendered.parse::<SimTime>(), Ok(t), "{rendered}");
        }
        // Non-canonical spellings that do parse still name the instant
        // their canonical rendering names.
        for s in ["2006-1-2 3:4:5", "2006-01-02 +3:04:05"] {
            let t: SimTime = s.parse().unwrap();
            assert_eq!(t.to_string(), "2006-01-02 03:04:05");
            assert_eq!(t.to_string().parse::<SimTime>(), Ok(t));
        }
    }

    #[test]
    fn duration_since_measures_forward_spans() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(160);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(60));
        assert_eq!(a.checked_duration_since(b), None);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backward_span() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_display_humanizes() {
        assert_eq!(SimDuration::from_secs(59).to_string(), "00:00:59");
        assert_eq!(SimDuration::from_hours(3).to_string(), "03:00:00");
        assert_eq!(
            (SimDuration::from_days(2) + SimDuration::from_secs(3 * 3600 + 15 * 60 + 9))
                .to_string(),
            "2d 03:15:09"
        );
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = [10u64, 20, 30]
            .into_iter()
            .map(SimDuration::from_secs)
            .sum();
        assert_eq!(total, SimDuration::from_secs(60));
    }
}
