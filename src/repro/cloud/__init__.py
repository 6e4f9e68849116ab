"""Cloud substrate: an in-process simulator of the AWS slice the paper uses.

The paper's POD-Diagnosis interacts with AWS exclusively through API calls
(EC2 instances, AMIs, security groups, key pairs, launch configurations,
auto-scaling groups, elastic load balancers) plus two observability
services (CloudTrail, an Edda-style monitor).  This package implements all
of those with the same observable behaviours the paper depends on:

- resource lifecycle (pending → running → terminated instances, ASG
  reconciliation control loop, ELB registration and health),
- AWS-style error codes (``InvalidAMIID.NotFound``,
  ``InstanceLimitExceeded``, ``Throttling``, ...),
- **eventual consistency**: reads may return stale views for a while after
  a write (§IV of the paper motivates the "consistent AWS API layer"),
- **CloudTrail delivery delay**: API-call logs only become visible minutes
  after the call (§VII explains why the paper could not use it online),
- fault-injection hooks used by the evaluation campaign.
"""

from repro.cloud.api import CloudAPI, TimedCloudClient
from repro.cloud.chaos import (
    CHAOS_LEVELS,
    CHAOS_PROFILES,
    BlackholedCall,
    ChaosController,
    ChaosProfile,
    ErrorStorm,
    get_profile,
)
from repro.cloud.cloudtrail import CloudTrail
from repro.cloud.controller import AsgController, ScalingActivity
from repro.cloud.provider import SimulatedCloud
from repro.cloud.consistency import ConsistencyModel, EventuallyConsistentView
from repro.cloud.errors import (
    CloudError,
    DependencyViolation,
    LimitExceeded,
    MalformedRequest,
    ResourceInUse,
    ResourceNotFound,
    ServiceUnavailable,
    Throttling,
)
from repro.cloud.faults import FaultInjector
from repro.cloud.freeze import FrozenList, FrozenMutationError, FrozenView, thaw
from repro.cloud.limits import AccountLimits
from repro.cloud.monitor import CloudMonitor
from repro.cloud.resources import (
    AmiImage,
    AutoScalingGroup,
    Instance,
    InstanceState,
    KeyPair,
    LaunchConfiguration,
    LoadBalancer,
    SecurityGroup,
)
from repro.cloud.state import CloudState

__all__ = [
    "AccountLimits",
    "BlackholedCall",
    "CHAOS_LEVELS",
    "CHAOS_PROFILES",
    "ChaosController",
    "ChaosProfile",
    "ErrorStorm",
    "get_profile",
    "AsgController",
    "ScalingActivity",
    "SimulatedCloud",
    "AmiImage",
    "AutoScalingGroup",
    "CloudAPI",
    "CloudError",
    "CloudMonitor",
    "CloudState",
    "CloudTrail",
    "ConsistencyModel",
    "DependencyViolation",
    "EventuallyConsistentView",
    "FaultInjector",
    "FrozenList",
    "FrozenMutationError",
    "FrozenView",
    "thaw",
    "Instance",
    "InstanceState",
    "KeyPair",
    "LaunchConfiguration",
    "LimitExceeded",
    "LoadBalancer",
    "MalformedRequest",
    "ResourceInUse",
    "ResourceNotFound",
    "SecurityGroup",
    "ServiceUnavailable",
    "Throttling",
    "TimedCloudClient",
]
